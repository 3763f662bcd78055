// Consolidated map option blocks, shared by HtTree and ShardedMap.
//
// Every far map used to grow its own flat knobs for the same three
// concerns — near caching, write-behind staging, and adaptive routing.
// These blocks make the concerns composable: HtTree::Options and
// ShardedMap::Options embed the SAME types, so harness/bench code can build
// one {cache, write_behind, route} configuration and drop it into either
// map.
//
// The one defaulting rule: an explicit EnableWriteBehind(options) argument
// wins over the stored `Options::write_behind` block (which the no-arg
// overload uses).
#ifndef FMDS_SRC_CORE_MAP_OPTIONS_H_
#define FMDS_SRC_CORE_MAP_OPTIONS_H_

#include <cstdint>

#include "src/cache/near_cache.h"
#include "src/core/dataplane.h"

namespace fmds {

// NearCacheOptions plus the fleet-wide concerns a multi-cache map owns.
// Inherits so every per-cache knob keeps its name (`cache.budget_bytes`,
// `cache.admit_after`, ...).
struct CacheOptions : NearCacheOptions {
  // Fleet-wide budget shared by sibling caches (ShardedMap: one shared
  // CacheBudget caps the summed bytes of ALL shards' rings). 0 keeps
  // per-cache budgets. Maps owning a single cache (HtTree) ignore it.
  uint64_t global_budget_bytes = 0;
};

// Adaptive one-sided vs RPC dataplane (DESIGN.md §13) as a configuration
// block: both pointers must outlive the map. When enabled() at
// Create/Attach, the map arms routing immediately — equivalent to calling
// EnableRouting() on the fresh handle.
struct RouteOptions {
  RouteDecider* decider = nullptr;
  RemoteMapPath* remote = nullptr;
  bool enabled() const { return decider != nullptr && remote != nullptr; }
};

}  // namespace fmds

#endif  // FMDS_SRC_CORE_MAP_OPTIONS_H_
