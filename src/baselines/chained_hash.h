// Baseline: a *traditional* chained hash table used over far memory with
// one-sided accesses — the design §1 calls "the wrong data structure for far
// memory". Fixed bucket count (resizing a large far table is disruptive,
// §5.2), chains grow with load, and without the proposed hardware a lookup
// needs at least two far accesses (bucket word, then item), plus one per
// chain hop.
//
// `use_indirect` switches the bucket+item read to a single load0 — isolating
// how much of the HT-tree's win comes from the hardware primitive vs from
// the structure itself (E2 ablation).
#ifndef FMDS_SRC_BASELINES_CHAINED_HASH_H_
#define FMDS_SRC_BASELINES_CHAINED_HASH_H_

#include <cstdint>

#include "src/alloc/far_allocator.h"
#include "src/common/hash.h"
#include "src/fabric/far_client.h"

namespace fmds {

class ChainedHash {
 public:
  struct Options {
    uint64_t buckets = 4096;
    bool use_indirect = false;  // load0 on lookups (proposed HW)
  };

  static Result<ChainedHash> Create(FarClient* client, FarAllocator* alloc,
                                    Options options);
  static Result<ChainedHash> Attach(FarClient* client, FarAllocator* alloc,
                                    FarAddr header);

  FarAddr header() const { return header_; }

  Result<uint64_t> Get(uint64_t key);
  Status Put(uint64_t key, uint64_t value);
  Status Remove(uint64_t key);  // tombstone insert, like Put

  // Batched multi-key lookup over the async pipeline: all bucket probes in
  // one doorbell, chain hops in batched waves. Same per-key semantics as
  // Get. Requires no other async ops pending on the client.
  std::vector<Result<uint64_t>> MultiGet(std::span<const uint64_t> keys);

  // Average chain length observed by this handle's Gets.
  double observed_chain_length() const {
    return gets_ == 0 ? 0.0
                      : static_cast<double>(chain_hops_) /
                            static_cast<double>(gets_);
  }

 private:
  // Header: [0] bucket base, [8] bucket count.
  static constexpr uint64_t kHeaderBytes = 16;
  // Item: [0] key, [8] value, [16] flags, [24] next (0 terminates).
  static constexpr uint64_t kItemBytes = 32;
  static constexpr uint64_t kFlagTombstone = 1;
  // Items the client slab pre-allocates per far allocation.
  static constexpr uint64_t kArenaBatch = 4096;

  struct Item {
    uint64_t key;
    uint64_t value;
    uint64_t flags;
    FarAddr next;
  };

  ChainedHash(FarClient* client, FarAllocator* alloc)
      : client_(client), alloc_(alloc) {}

  FarAddr BucketAddr(uint64_t key) const {
    return buckets_ + (Mix64(key) % nbuckets_) * kWordSize;
  }
  Result<FarAddr> AllocItemSlot();
  Status InsertAtHead(uint64_t key, uint64_t value, uint64_t flags);

  FarClient* client_;
  FarAllocator* alloc_;
  FarAddr header_ = kNullFarAddr;
  FarAddr buckets_ = kNullFarAddr;
  uint64_t nbuckets_ = 0;
  Options options_;

  FarAddr arena_next_ = kNullFarAddr;
  uint64_t arena_left_ = 0;
  uint64_t gets_ = 0;
  uint64_t chain_hops_ = 0;
};

}  // namespace fmds

#endif  // FMDS_SRC_BASELINES_CHAINED_HASH_H_
