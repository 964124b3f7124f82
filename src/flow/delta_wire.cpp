#include "flow/delta_wire.hpp"

#include <limits>

#include "flow/wire.hpp"

namespace haystack::flow {

namespace {

bool fail(std::string* error, const char* reason) {
  if (error != nullptr) *error = reason;
  return false;
}

// Smallest possible row: subscriber + label + flags + mask0 + u32
// packets + first_seen (only used to bound the row count pre-reserve).
constexpr std::size_t kMinRowBytes = 8 + 4 + 1 + 8 + 4 + 4;

// Row flags.
constexpr std::uint8_t kFlagMask1 = 0x01;
constexpr std::uint8_t kFlagWidePackets = 0x02;
constexpr std::uint8_t kKnownFlags = kFlagMask1 | kFlagWidePackets;

}  // namespace

std::vector<std::uint8_t> encode_delta(const EvidenceDelta& delta) {
  ByteWriter w;
  w.u32(kDeltaMagic);
  w.u32(kDeltaVersion);
  w.u32(delta.collector);
  w.u32(delta.seq);
  w.u32(delta.epoch);
  w.u8(static_cast<std::uint8_t>(delta.kind));
  w.u64(delta.threshold_bits);
  w.u64(delta.flows);
  w.u64(delta.matched);
  w.u32(static_cast<std::uint32_t>(delta.labels.size()));
  for (const std::string& label : delta.labels) {
    w.u16(static_cast<std::uint16_t>(label.size()));
    w.bytes({reinterpret_cast<const std::uint8_t*>(label.data()),
             label.size()});
  }
  w.u64(delta.rows.size());
  for (const DeltaRow& row : delta.rows) {
    w.u64(row.subscriber);
    w.u32(row.label);
    std::uint8_t flags = 0;
    if (row.mask1 != 0) flags |= kFlagMask1;
    if (row.packets > 0xffffffffULL) flags |= kFlagWidePackets;
    w.u8(flags);
    w.u64(row.mask0);
    if (flags & kFlagMask1) w.u64(row.mask1);
    if (flags & kFlagWidePackets) {
      w.u64(row.packets);
    } else {
      w.u32(static_cast<std::uint32_t>(row.packets));
    }
    w.u32(row.first_seen);
  }
  return w.take();
}

bool decode_delta(std::span<const std::uint8_t> datagram, EvidenceDelta& out,
                  std::string* error) {
  ByteReader r{datagram};
  if (r.u32() != kDeltaMagic) return fail(error, "bad magic");
  if (r.u32() != kDeltaVersion) return fail(error, "unsupported version");
  out.collector = r.u32();
  out.seq = r.u32();
  out.epoch = r.u32();
  const std::uint8_t kind = r.u8();
  if (!r.ok()) return fail(error, "truncated header");
  if (kind > static_cast<std::uint8_t>(DeltaKind::kSnapshot)) {
    return fail(error, "unknown delta kind");
  }
  out.kind = static_cast<DeltaKind>(kind);
  out.threshold_bits = r.u64();
  out.flows = r.u64();
  out.matched = r.u64();

  const std::uint32_t label_count = r.u32();
  if (!r.ok()) return fail(error, "truncated header");
  // Each label costs at least its 2-byte length prefix; a count the buffer
  // cannot possibly hold is rejected before any allocation.
  if (static_cast<std::size_t>(label_count) * 2 > r.remaining()) {
    return fail(error, "label count exceeds datagram");
  }
  out.labels.clear();
  out.labels.reserve(label_count);
  for (std::uint32_t i = 0; i < label_count; ++i) {
    const std::uint16_t len = r.u16();
    if (len > r.remaining()) return fail(error, "truncated label");
    std::string label(len, '\0');
    if (!r.bytes({reinterpret_cast<std::uint8_t*>(label.data()), label.size()})) {
      return fail(error, "truncated label");
    }
    out.labels.push_back(std::move(label));
  }

  const std::uint64_t row_count = r.u64();
  if (!r.ok()) return fail(error, "truncated row count");
  // Strict: a delta is a single datagram, so the row section must consume
  // exactly the remaining bytes — this rejects both truncation (including
  // ImpairedLink tail-cuts) and trailing garbage. The division guard keeps
  // an adversarial count from turning into a huge allocation. Rows are
  // variable-length, so the exact-fit check happens after the walk.
  if (row_count > r.remaining() / kMinRowBytes) {
    return fail(error, "row section size mismatch");
  }
  out.rows.clear();
  out.rows.reserve(static_cast<std::size_t>(row_count));
  for (std::uint64_t i = 0; i < row_count; ++i) {
    DeltaRow row;
    row.subscriber = r.u64();
    row.label = r.u32();
    const std::uint8_t flags = r.u8();
    if (!r.ok()) return fail(error, "truncated rows");
    if ((flags & ~kKnownFlags) != 0) return fail(error, "unknown row flags");
    row.mask0 = r.u64();
    row.mask1 = (flags & kFlagMask1) ? r.u64() : 0;
    row.packets = (flags & kFlagWidePackets) ? r.u64() : r.u32();
    row.first_seen = r.u32();
    // Canonical widths keep decode→encode byte-identical: a narrow value
    // in a wide field (or a present-but-zero mask word) is rejected.
    if ((flags & kFlagMask1) && row.mask1 == 0) {
      return fail(error, "non-canonical mask width");
    }
    if ((flags & kFlagWidePackets) && row.packets <= 0xffffffffULL) {
      return fail(error, "non-canonical packet width");
    }
    if (row.label >= label_count) return fail(error, "label index out of range");
    out.rows.push_back(row);
  }
  if (!r.ok() || r.remaining() != 0) return fail(error, "truncated rows");
  if (error != nullptr) error->clear();
  return true;
}

}  // namespace haystack::flow
