// Far-memory counter (§5.1): "implemented using loads, stores, and atomics
// with immediate addressing". One word in far memory; every operation is a
// single far access. Consumers can subscribe to changes (notify0) or to a
// target value (notifye) on addr() instead of polling.
#ifndef FMDS_SRC_CORE_FAR_COUNTER_H_
#define FMDS_SRC_CORE_FAR_COUNTER_H_

#include "src/alloc/far_allocator.h"
#include "src/fabric/far_client.h"

namespace fmds {

class FarCounter {
 public:
  // Allocates and initializes the counter (one far write).
  static Result<FarCounter> Create(FarClient& client, FarAllocator& alloc,
                                   uint64_t initial = 0) {
    FMDS_ASSIGN_OR_RETURN(FarAddr addr, alloc.Allocate(kWordSize));
    FMDS_RETURN_IF_ERROR(client.WriteWord(addr, initial));
    return FarCounter(addr);
  }

  // Binds to an existing counter created elsewhere.
  static FarCounter Attach(FarAddr addr) { return FarCounter(addr); }

  FarAddr addr() const { return addr_; }

  Result<uint64_t> Get(FarClient& client) const {
    return client.ReadWord(addr_);
  }
  Status Set(FarClient& client, uint64_t value) const {
    return client.WriteWord(addr_, value);
  }
  Result<uint64_t> FetchAdd(FarClient& client, uint64_t delta) const {
    return client.FetchAdd(addr_, delta);
  }
  Status Add(FarClient& client, uint64_t delta) const {
    return client.FetchAdd(addr_, delta).status();
  }

 private:
  explicit FarCounter(FarAddr addr) : addr_(addr) {}
  FarAddr addr_;
};

}  // namespace fmds

#endif  // FMDS_SRC_CORE_FAR_COUNTER_H_
