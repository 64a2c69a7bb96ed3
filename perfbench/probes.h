#ifndef E2NVM_PERFBENCH_PROBES_H_
#define E2NVM_PERFBENCH_PROBES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "core/sharded_store.h"
#include "workloads.h"

namespace e2bench {

/// Inputs captured from the timed phase, in stream order.
struct Captured {
  std::vector<std::pair<uint64_t, e2nvm::BitVector>> puts;
  std::vector<uint64_t> keys;  // Every op's key.
};

/// Times single layers on the captured inputs. Probes own what they
/// write to (a journal, a device, a tree, a ring, a model clone) and only
/// read the measured store, so they never change its state.
ProbeResults RunProbes(e2nvm::core::ShardedStore& store,
                       const WorkloadSpec& spec, const Captured& captured);

}  // namespace e2bench

#endif  // E2NVM_PERFBENCH_PROBES_H_
