// Far-memory vector (§5.1): a fixed-capacity array of trivially copyable
// elements behind a far base pointer.
//
// Two access modes, both one far access per element operation:
//   * indirect (load1/store1): the hardware dereferences the base pointer
//     and indexes in a single instruction — clients need not know where the
//     storage lives, and the owner can swap the storage atomically (the
//     monitoring case study's circular window buffer relies on this);
//   * direct: the client caches the base pointer once and reads/writes the
//     element address itself.
//
// Clients may subscribe to element ranges (notify0 / notify0d).
#ifndef FMDS_SRC_CORE_FAR_VECTOR_H_
#define FMDS_SRC_CORE_FAR_VECTOR_H_

#include <array>

#include "src/alloc/far_allocator.h"
#include "src/common/bytes.h"
#include "src/fabric/far_client.h"

namespace fmds {

template <typename T>
class FarVector {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) % kWordSize == 0,
                "element size must be a multiple of the fabric word");

 public:
  // Header layout: [0] base pointer, [8] capacity.
  static constexpr uint64_t kHeaderBytes = 2 * kWordSize;

  // Allocates header + storage; zero-initializes elements.
  static Result<FarVector> Create(FarClient& client, FarAllocator& alloc,
                                  uint64_t capacity,
                                  AllocHint data_hint = AllocHint::Any()) {
    FMDS_ASSIGN_OR_RETURN(FarAddr header, alloc.Allocate(kHeaderBytes));
    FMDS_ASSIGN_OR_RETURN(FarAddr data,
                          alloc.Allocate(capacity * sizeof(T), data_hint));
    FMDS_RETURN_IF_ERROR(client.WriteWord(header, data));
    FMDS_RETURN_IF_ERROR(client.WriteWord(header + kWordSize, capacity));
    // Zero the storage (allocator does not guarantee fresh pages are clean
    // after reuse); bulk write, one round trip.
    std::vector<std::byte> zeros(capacity * sizeof(T), std::byte{0});
    FMDS_RETURN_IF_ERROR(client.Write(data, zeros));
    return FarVector(header, data, capacity);
  }

  // Binds to an existing vector; reads the header (one far access).
  static Result<FarVector> Attach(FarClient& client, FarAddr header) {
    std::array<uint64_t, 2> hdr;
    FMDS_RETURN_IF_ERROR(client.Read(
        header, std::as_writable_bytes(std::span<uint64_t>(hdr))));
    return FarVector(header, hdr[0], hdr[1]);
  }

  FarAddr header() const { return header_; }
  FarAddr data() const { return data_; }
  uint64_t capacity() const { return capacity_; }
  FarAddr ElementAddr(uint64_t i) const { return data_ + i * sizeof(T); }

  // ---- Direct mode: client-resolved addressing (base cached locally). ----
  Result<T> Get(FarClient& client, uint64_t i) const {
    FMDS_RETURN_IF_ERROR(CheckIndex(i));
    T out;
    FMDS_RETURN_IF_ERROR(client.Read(ElementAddr(i), AsBytes(out)));
    return out;
  }

  Status Set(FarClient& client, uint64_t i, const T& value) const {
    FMDS_RETURN_IF_ERROR(CheckIndex(i));
    return client.Write(ElementAddr(i), AsConstBytes(value));
  }

  // ---- Indirect mode: hardware dereferences the far base pointer. ----
  Result<T> GetIndirect(FarClient& client, uint64_t i) const {
    FMDS_RETURN_IF_ERROR(CheckIndex(i));
    T out;
    FMDS_RETURN_IF_ERROR(
        client.Load2(header_, i * sizeof(T), AsBytes(out)).status());
    return out;
  }

  Status SetIndirect(FarClient& client, uint64_t i, const T& value) const {
    FMDS_RETURN_IF_ERROR(CheckIndex(i));
    return client.Store2(header_, i * sizeof(T), AsConstBytes(value))
        .status();
  }

  // Atomic add on a word-sized element through the base pointer (add2) —
  // one far access even though two far locations participate.
  Status AddIndirect(FarClient& client, uint64_t i, uint64_t delta) const {
    static_assert(sizeof(T) == kWordSize,
                  "AddIndirect requires word-sized elements");
    FMDS_RETURN_IF_ERROR(CheckIndex(i));
    return client.Add2(header_, delta, i * sizeof(T));
  }

  // Bulk read of [first, first+count) into `out` (one round trip).
  Status ReadRange(FarClient& client, uint64_t first, std::span<T> out) const {
    if (first + out.size() > capacity_) {
      return OutOfRange("vector range read");
    }
    return client.Read(ElementAddr(first),
                       std::as_writable_bytes(out));
  }

  Status WriteRange(FarClient& client, uint64_t first,
                    std::span<const T> values) const {
    if (first + values.size() > capacity_) {
      return OutOfRange("vector range write");
    }
    return client.Write(ElementAddr(first), std::as_bytes(values));
  }

  // notify0 / notify0d over [first, first+count) elements, delivered to
  // `sink`. The range must stay within one page (fabric constraint) —
  // callers align their layouts.
  Result<SubId> SubscribeRange(
      FarClient& client, uint64_t first, uint64_t count, bool with_data,
      NotificationSink* sink,
      DeliveryPolicy policy = DeliveryPolicy::Reliable()) const {
    if (first + count > capacity_) {
      return Status(StatusCode::kOutOfRange, "subscribe range");
    }
    NotifySpec spec;
    spec.mode = with_data ? NotifyMode::kOnWriteData : NotifyMode::kOnWrite;
    spec.addr = ElementAddr(first);
    spec.len = count * sizeof(T);
    spec.policy = policy;
    return client.Subscribe(spec, sink);
  }

  // Swaps the storage the base pointer designates (owner-side; one far
  // write). Indirect-mode readers switch over atomically.
  Status Rebase(FarClient& client, FarAddr new_data) {
    FMDS_RETURN_IF_ERROR(client.WriteWord(header_, new_data));
    data_ = new_data;
    return OkStatus();
  }

 private:
  FarVector(FarAddr header, FarAddr data, uint64_t capacity)
      : header_(header), data_(data), capacity_(capacity) {}

  Status CheckIndex(uint64_t i) const {
    if (i >= capacity_) {
      return OutOfRange("vector index");
    }
    return OkStatus();
  }

  FarAddr header_;
  FarAddr data_;
  uint64_t capacity_;
};

}  // namespace fmds

#endif  // FMDS_SRC_CORE_FAR_VECTOR_H_
