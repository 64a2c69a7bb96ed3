#include "common/bitvec.h"

#include <algorithm>

namespace e2nvm {

BitVector BitVector::FromString(const std::string& bits) {
  BitVector v(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') v.Set(i, true);
  }
  return v;
}

BitVector BitVector::FromBytes(const uint8_t* data, size_t len) {
  BitVector v(len * 8);
  for (size_t i = 0; i < len; ++i) {
    v.words_[i >> 3] |= uint64_t{data[i]} << ((i & 7) * 8);
  }
  return v;
}

BitVector BitVector::FromFloats(const std::vector<float>& features,
                                float threshold) {
  BitVector v(features.size());
  for (size_t i = 0; i < features.size(); ++i) {
    if (features[i] >= threshold) v.Set(i, true);
  }
  return v;
}

size_t BitVector::Popcount() const {
  return Ops().popcount_words(words_.data(), words_.size());
}

size_t BitVector::HammingDistance(const BitVector& other) const {
  assert(num_bits_ == other.num_bits_);
  return Ops().hamming_words(words_.data(), other.words_.data(),
                             words_.size());
}

DiffCounts BitVector::DiffStats(const BitVector& old_value,
                                const BitVector& new_value) {
  assert(old_value.num_bits_ == new_value.num_bits_);
  return Ops().diff_words(old_value.words_.data(),
                          new_value.words_.data(),
                          old_value.words_.size());
}

BitVector BitVector::Inverted() const {
  BitVector v(num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) v.words_[i] = ~words_[i];
  v.MaskTail();
  return v;
}

BitVector BitVector::RotatedLeft(size_t k) const {
  BitVector v(num_bits_);
  if (num_bits_ == 0) return v;
  k %= num_bits_;
  for (size_t i = 0; i < num_bits_; ++i) {
    if (Get(i)) v.Set((i + k) % num_bits_, true);
  }
  return v;
}

BitVector BitVector::Slice(size_t start, size_t len) const {
  assert(start + len <= num_bits_);
  BitVector v(len);
  // Output word i is source bits [start + 64i, start + 64i + 64): the
  // high part of source word w0 + i merged with the low part of the next
  // one (which may lie past the last word when the slice ends early).
  const size_t w0 = start >> 6;
  const size_t shift = start & 63;
  for (size_t i = 0; i < v.words_.size(); ++i) {
    uint64_t w = words_[w0 + i] >> shift;
    if (shift != 0 && w0 + i + 1 < words_.size()) {
      w |= words_[w0 + i + 1] << (64 - shift);
    }
    v.words_[i] = w;
  }
  v.MaskTail();
  return v;
}

void BitVector::Overlay(size_t start, const BitVector& other) {
  assert(start + other.size() <= num_bits_);
  // Each source word lands shifted by start % 64, straddling at most two
  // destination words; `keep` masks the source word's valid bits so the
  // destination bits past the overlay (and the tail) stay untouched.
  const size_t w0 = start >> 6;
  const size_t shift = start & 63;
  for (size_t i = 0; i < other.words_.size(); ++i) {
    const size_t valid = std::min<size_t>(64, other.num_bits_ - 64 * i);
    const uint64_t keep =
        valid == 64 ? ~uint64_t{0} : (uint64_t{1} << valid) - 1;
    const uint64_t src = other.words_[i];  // Tail bits already zero.
    uint64_t& lo = words_[w0 + i];
    lo = (lo & ~(keep << shift)) | (src << shift);
    if (shift == 0) continue;
    const uint64_t spill = keep >> (64 - shift);
    if (spill != 0) {
      uint64_t& hi = words_[w0 + i + 1];
      hi = (hi & ~spill) | (src >> (64 - shift));
    }
  }
}

BitVector BitVector::Concat(const BitVector& other) const {
  BitVector v(num_bits_ + other.num_bits_);
  for (size_t i = 0; i < num_bits_; ++i) {
    if (Get(i)) v.Set(i, true);
  }
  for (size_t i = 0; i < other.num_bits_; ++i) {
    if (other.Get(i)) v.Set(num_bits_ + i, true);
  }
  return v;
}

size_t BitVector::DirtyLines(const BitVector& other, size_t line_bits) const {
  assert(num_bits_ == other.num_bits_);
  assert(line_bits > 0);
  size_t dirty = 0;
  for (size_t start = 0; start < num_bits_; start += line_bits) {
    size_t end = std::min(start + line_bits, num_bits_);
    // Word-level scan of [start, end): XOR whole words, masking the
    // partial first/last word of lines not aligned to 64 bits.
    bool differs = false;
    const size_t w0 = start >> 6;
    const size_t w1 = (end + 63) >> 6;
    for (size_t w = w0; w < w1 && !differs; ++w) {
      uint64_t diff = words_[w] ^ other.words_[w];
      if (w == w0 && (start & 63) != 0) {
        diff &= ~uint64_t{0} << (start & 63);
      }
      if (w == w1 - 1 && (end & 63) != 0) {
        diff &= (uint64_t{1} << (end & 63)) - 1;
      }
      differs = diff != 0;
    }
    if (differs) ++dirty;
  }
  return dirty;
}

std::vector<float> BitVector::ToFloats() const {
  std::vector<float> out(num_bits_);
  AppendFloatsTo(out.data());
  return out;
}

void BitVector::AppendFloatsTo(float* out) const {
  Ops().bits_to_floats(words_.data(), num_bits_, out);
}

std::string BitVector::ToString() const {
  std::string s(num_bits_, '0');
  for (size_t i = 0; i < num_bits_; ++i) {
    if (Get(i)) s[i] = '1';
  }
  return s;
}

void BitVector::MaskTail() {
  size_t tail = num_bits_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

}  // namespace e2nvm
