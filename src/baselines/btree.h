// Baseline: B+tree over far memory (cf. [12] in the paper).
//
// One-sided lookups cost one far access per level — the O(log n) the paper
// says far memory cannot afford (§1, §5.2). With `cache_internal` the client
// caches every internal node it reads, getting 1-far-access lookups at the
// price of an O(n / fanout) client cache — exactly the trade §5.2 criticizes
// ("a B-tree with a trillion elements must cache billions of elements to
// enable single round trip lookups") and the HT-tree avoids.
//
// Writers serialize on a far mutex (top-down preemptive-split insertion);
// deletion is lazy (no rebalancing). Cross-client cache invalidation is out
// of scope for this baseline — E4 measures cache *size*, which is the
// paper's argument.
#ifndef FMDS_SRC_BASELINES_BTREE_H_
#define FMDS_SRC_BASELINES_BTREE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/alloc/far_allocator.h"
#include "src/core/far_mutex.h"
#include "src/fabric/far_client.h"

namespace fmds {

class FarBTree {
 public:
  struct Options {
    uint64_t fanout = 16;        // max keys per node
    bool cache_internal = false; // client-cached inner levels
  };

  static Result<FarBTree> Create(FarClient* client, FarAllocator* alloc,
                                 Options options);
  static Result<FarBTree> Attach(FarClient* client, FarAllocator* alloc,
                                 FarAddr header);

  FarAddr header() const { return header_; }

  Result<uint64_t> Get(uint64_t key);
  Status Put(uint64_t key, uint64_t value);
  Status Remove(uint64_t key);

  // Far accesses the most recent Get performed (cache hits excluded).
  uint64_t last_get_far_accesses() const { return last_get_accesses_; }
  uint64_t height() const { return height_; }
  uint64_t cache_bytes() const;

 private:
  // Header: [0] root, [8] fanout, [16] lock, [24] height.
  static constexpr uint64_t kHeaderBytes = 32;

  // In-memory node image. Far layout (words):
  //   [0] meta (bit0 leaf, bits 8.. key count)
  //   [1 .. F]      keys
  //   [F+1 .. 2F+1] children (internal) / values + next-leaf in the last
  //                 slot (leaf)
  struct Node {
    bool leaf = true;
    uint64_t count = 0;
    std::vector<uint64_t> keys;
    std::vector<uint64_t> ptrs;  // children or values (+ next-leaf link)
  };

  FarBTree(FarClient* client, FarAllocator* alloc)
      : client_(client), alloc_(alloc) {}

  uint64_t node_words() const { return 2 * fanout_ + 2; }
  uint64_t node_bytes() const { return node_words() * kWordSize; }

  Result<Node> ReadNode(FarAddr addr, bool count_access = true);
  Status WriteNode(FarAddr addr, const Node& node);
  Result<FarAddr> AllocNode(const Node& node);
  // Cached read for internal nodes when cache_internal is on.
  Result<Node> ReadInternal(FarAddr addr);
  void Invalidate(FarAddr addr) { cache_.erase(addr); }

  // Splits full child `child_addr` (index `slot` of `parent`); parent must
  // have room. Rewrites parent and both halves.
  Status SplitChild(FarAddr parent_addr, Node& parent, uint64_t slot,
                    FarAddr child_addr, Node& child);

  FarClient* client_;
  FarAllocator* alloc_;
  FarAddr header_ = kNullFarAddr;
  uint64_t fanout_ = 0;
  Options options_;
  FarMutex lock_ = FarMutex::Attach(kNullFarAddr);
  uint64_t height_ = 1;
  uint64_t last_get_accesses_ = 0;

  std::unordered_map<FarAddr, Node> cache_;
};

}  // namespace fmds

#endif  // FMDS_SRC_BASELINES_BTREE_H_
