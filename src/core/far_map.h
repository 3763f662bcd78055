// FarMap: the unified key-value interface every far-memory map in this
// repo speaks — HtTree (§5.2), ShardedMap (§7 scale-out), and, via the
// FarMapRef adapter, the baseline hash tables. Harness code (the overload
// scenario suite, shadow-equivalence tests, benches) programs against this
// interface and swaps structures without touching the driver.
//
// The interface is the common semantic core, not the union of features:
//   - Get/Put/Remove: point ops on uint64 keys/values; Get returns
//     kNotFound for absent keys. Under congestion (DESIGN.md §14) any verb
//     may surface kOverloaded when the client's retry budget is exhausted.
//   - MultiGet/MultiPut: batched ops with per-key Get/Put semantics. The
//     default implementations loop the point ops (correct everywhere); maps
//     with doorbell wave engines override them with the batched fast path.
//   - FlushBarrier: publishes staged asynchronous writes (write-behind);
//     a no-op default for maps without staging.
// Structure-specific surface (routing arms, txn hooks, wave engines) stays
// on the concrete classes; callers needing it downcast explicitly.
#ifndef FMDS_SRC_CORE_FAR_MAP_H_
#define FMDS_SRC_CORE_FAR_MAP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"

namespace fmds {

// Portable per-handle counters. They are the HT-tree's own op counters
// (HtTree::OpStats names this struct); a structure fills the fields it
// tracks and leaves the rest zero.
struct FarMapStats {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t removes = 0;
  uint64_t chain_hops = 0;       // extra far accesses walking chains
  uint64_t stale_refreshes = 0;  // cache refreshes triggered by staleness
  uint64_t cas_retries = 0;      // bucket CAS mispredictions
  uint64_t splits = 0;           // splits this handle performed
  uint64_t compactions = 0;      // bucket compactions this handle landed

  void Add(const FarMapStats& other) {
    gets += other.gets;
    puts += other.puts;
    removes += other.removes;
    chain_hops += other.chain_hops;
    stale_refreshes += other.stale_refreshes;
    cas_retries += other.cas_retries;
    splits += other.splits;
    compactions += other.compactions;
  }
};

class FarMap {
 public:
  virtual ~FarMap() = default;

  virtual Result<uint64_t> Get(uint64_t key) = 0;
  virtual Status Put(uint64_t key, uint64_t value) = 0;
  virtual Status Remove(uint64_t key) = 0;

  // Batched lookups; default = sequential Gets (one round trip per key).
  virtual std::vector<Result<uint64_t>> MultiGet(
      std::span<const uint64_t> keys) {
    std::vector<Result<uint64_t>> results;
    results.reserve(keys.size());
    for (uint64_t key : keys) {
      results.push_back(Get(key));
    }
    return results;
  }

  // Batched stores; default = sequential Puts, first error wins.
  virtual Status MultiPut(std::span<const uint64_t> keys,
                          std::span<const uint64_t> values) {
    if (keys.size() != values.size()) {
      return InvalidArgument("multiput keys/values size mismatch");
    }
    Status first = OkStatus();
    for (size_t i = 0; i < keys.size(); ++i) {
      Status st = Put(keys[i], values[i]);
      if (first.ok() && !st.ok()) {
        first = st;
      }
    }
    return first;
  }

  // Publishes staged asynchronous writes; no-op without write-behind.
  virtual Status FlushBarrier() { return OkStatus(); }

  // Portable counters (see FarMapStats).
  virtual FarMapStats map_stats() const { return {}; }

  // Structure name for reports ("ht_tree", "sharded_map", ...).
  virtual const char* kind() const = 0;

 protected:
  FarMap() = default;
  FarMap(const FarMap&) = default;
  FarMap& operator=(const FarMap&) = default;
  FarMap(FarMap&&) = default;
  FarMap& operator=(FarMap&&) = default;
};

// Non-owning adapter: presents any map-shaped M (the baseline hash tables)
// as a FarMap. Uses whatever batched/flush surface M has and falls back to
// the FarMap defaults for the rest, so a baseline without MultiPut still
// slots into a generic harness.
template <typename M>
class FarMapRef final : public FarMap {
 public:
  explicit FarMapRef(M* map, const char* kind_name) : map_(map), kind_(kind_name) {}

  Result<uint64_t> Get(uint64_t key) override { return map_->Get(key); }
  Status Put(uint64_t key, uint64_t value) override {
    return map_->Put(key, value);
  }
  Status Remove(uint64_t key) override { return map_->Remove(key); }

  std::vector<Result<uint64_t>> MultiGet(
      std::span<const uint64_t> keys) override {
    if constexpr (requires { map_->MultiGet(keys); }) {
      return map_->MultiGet(keys);
    } else {
      return FarMap::MultiGet(keys);
    }
  }

  Status MultiPut(std::span<const uint64_t> keys,
                  std::span<const uint64_t> values) override {
    if constexpr (requires { map_->MultiPut(keys, values); }) {
      return map_->MultiPut(keys, values);
    } else {
      return FarMap::MultiPut(keys, values);
    }
  }

  Status FlushBarrier() override {
    if constexpr (requires { map_->FlushBarrier(); }) {
      return map_->FlushBarrier();
    } else {
      return OkStatus();
    }
  }

  FarMapStats map_stats() const override {
    if constexpr (requires { map_->map_stats(); }) {
      return map_->map_stats();
    } else {
      return {};
    }
  }

  const char* kind() const override { return kind_; }

  M* get() { return map_; }

 private:
  M* map_;
  const char* kind_;
};

}  // namespace fmds

#endif  // FMDS_SRC_CORE_FAR_MAP_H_
