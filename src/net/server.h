#ifndef E2NVM_NET_SERVER_H_
#define E2NVM_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/sharded_store.h"
#include "net/protocol.h"

namespace e2nvm::net {

struct ServerConfig {
  /// Port to bind on 127.0.0.1. 0 picks an ephemeral port; read the
  /// actual one back from Server::port().
  uint16_t port = 0;

  /// Connection-worker threads. Each accepted connection is assigned
  /// (round-robin) to exactly one worker and is touched only by that
  /// worker's thread afterwards, so per-connection state needs no
  /// locking at all.
  size_t num_workers = 2;

  /// Frames declaring a larger size are a framing violation: the
  /// connection is closed (protocol.h, Decoded::kFatal).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Once a worker has served this many requests, it brackets every
  /// subsequent request-processing pass with lock-audit (and, when
  /// `alloc_probe` is set, heap-allocation) sampling, accumulating the
  /// deltas into WireStats::audit_*. The threshold exists because the
  /// first passes legitimately allocate — connection scratch (rings,
  /// shard batches, response slots) grows to its working size — and the
  /// steady-state guarantee starts after that warmup. 0 disables
  /// auditing.
  uint64_t audit_after_requests = 0;

  /// Returns the calling thread's lifetime heap-allocation count.
  /// Tests and benches hook their interposed operator-new counter in
  /// here; nullptr skips allocation auditing (lock auditing still runs).
  uint64_t (*alloc_probe)() = nullptr;
};

/// Non-blocking epoll server exposing a core::ShardedStore over the
/// net/protocol wire format (DESIGN.md §14).
///
/// Threading: one acceptor thread plus `num_workers` connection workers,
/// each with a private epoll instance (edge-triggered) and an eventfd
/// for wakeups. A connection belongs to one worker for its whole life.
///
/// Batching pipeline (the perf core): on every wakeup a worker drains a
/// connection's socket, decodes ALL complete requests, and stages each
/// PUT — single or MULTI_PUT entry — into a per-connection, per-shard
/// batch (key + value copied into a reused slot). Read-path and barrier
/// ops (GET/DELETE/STATS, and bad-frame rejections) flush the staged
/// batches first, so a pipeline observes its own writes in order; the
/// end of the processing pass flushes whatever remains. Each flush
/// submits one ShardedStore::MultiPutShard per touched shard — the
/// zero-allocation MultiPut batch path is the network write path — and
/// then emits the deferred PUT/MULTI_PUT responses in arrival order
/// (responses are strictly in request order on the wire).
///
/// Error granularity: a PUT/MULTI_PUT response reports kError when any
/// shard batch it contributed to failed (shards are tracked in a 64-bit
/// mask, shard index mod 64), so one failing shard submission may
/// coarsen co-batched responses to kError. Store failures on this path
/// are faults (device/journal), not routine outcomes.
///
/// Steady state is allocation- and shared-lock-free: all per-request
/// scratch (rings, batch slots, pending-response list, GET decode
/// buffer) is connection- or worker-owned and reused in place, and the
/// request path crosses no lock outside the owning shard's mutex. The
/// audit_* counters in STATS make both properties observable
/// (ServerConfig::audit_after_requests).
class Server {
 public:
  /// Binds, listens and starts the acceptor + worker threads. `store`
  /// must outlive the server.
  static StatusOr<std::unique_ptr<Server>> Start(core::ShardedStore* store,
                                                 const ServerConfig& config);

  /// Stops and joins all threads, closing every connection.
  ~Server();

  uint16_t port() const { return port_; }

  /// Aggregated counters across workers — the same numbers the STATS op
  /// serves.
  WireStats Stats() const;

  /// Idempotent shutdown (also run by the destructor).
  void Stop();

 private:
  class Worker;

  Server(core::ShardedStore* store, const ServerConfig& config);

  void AcceptLoop();

  core::ShardedStore* store_;
  ServerConfig config_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int accept_epoll_fd_ = -1;
  int accept_event_fd_ = -1;
  std::atomic<bool> stop_{false};
  bool stopped_ = false;
  std::atomic<uint64_t> connections_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
  size_t next_worker_ = 0;
  std::thread acceptor_;
};

}  // namespace e2nvm::net

#endif  // E2NVM_NET_SERVER_H_
