// Structure-aware fuzzer for the HSVD evidence-delta decoder.
//
// Corpus: real encode_delta output (HSVD v2, the only version the decoder
// accepts) — empty heartbeat deltas, multi-row deltas with shared labels
// and wide fields, and a snapshot-kind delta — plus rejection seeds that
// must never decode: an HSVD v1 datagram in the retired fixed-row layout
// and HSCK v1/v2 checkpoint headers. Structure-aware mutations target the
// HSVD framing: the version and kind fields, the label count and label
// length prefixes, per-row label indices and flag bytes (found by walking
// the variable-length rows), the 64-bit row count (including
// overflow-bait values), and truncation/extension around the strict
// row-section boundary.
//
// Properties checked per input:
//   - decode_delta() returns (no crash, no OOB — sanitizers enforce);
//   - an accepted parse carries version 2 and is CANONICAL: re-encoding
//     it reproduces the input byte-for-byte (the decoder admits exactly
//     the encoder's image);
//   - every accepted row's label index is within the label table;
//   - accept/reject is deterministic (a second decode agrees).
// Before fuzzing, every valid seed must decode and every rejection seed
// must be refused with a reason.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "flow/delta_wire.hpp"
#include "flow/wire.hpp"
#include "fuzz_harness.hpp"

namespace {

using haystack::fuzz::Bytes;
using namespace haystack::flow;

EvidenceDelta sample_delta(std::uint32_t rows, DeltaKind kind) {
  EvidenceDelta delta;
  delta.collector = 3;
  delta.seq = 17;
  delta.epoch = 41;
  delta.kind = kind;
  delta.threshold_bits = 0x3fd999999999999aULL;  // 0.4
  delta.flows = 100000;
  delta.matched = 4242;
  delta.labels = {"echo-dot", "ring-doorbell", "chromecast"};
  for (std::uint32_t i = 0; i < rows; ++i) {
    DeltaRow row;
    row.subscriber = 0x1000 + i * 7;
    row.label = i % static_cast<std::uint32_t>(delta.labels.size());
    row.mask0 = (1ULL << (i % 64)) | 1U;
    row.mask1 = i % 5 == 0 ? (1ULL << 63) : 0;
    row.packets = i % 7 == 3 ? 0x1'0000'0000ULL + i : 10 + i;
    row.first_seen = i % 48;
    delta.rows.push_back(row);
  }
  return delta;
}

std::vector<Bytes> valid_seeds() {
  return {encode_delta(sample_delta(0, DeltaKind::kDelta)),
          encode_delta(sample_delta(5, DeltaKind::kDelta)),
          encode_delta(sample_delta(64, DeltaKind::kDelta)),
          encode_delta(sample_delta(9, DeltaKind::kSnapshot)),
          encode_delta(EvidenceDelta{})};
}

// Blobs in formats the decoder must refuse: an HSVD v1 datagram (the
// retired fixed 40-byte rows: subscriber, label, mask0, mask1, u64
// packets, first_seen) and the headers of HSCK v1/v2 checkpoints.
std::vector<Bytes> rejection_seeds() {
  std::vector<Bytes> seeds;
  const EvidenceDelta d = sample_delta(5, DeltaKind::kDelta);
  ByteWriter v1;
  v1.u32(kDeltaMagic);
  v1.u32(1);
  v1.u32(d.collector);
  v1.u32(d.seq);
  v1.u32(d.epoch);
  v1.u8(static_cast<std::uint8_t>(d.kind));
  v1.u64(d.threshold_bits);
  v1.u64(d.flows);
  v1.u64(d.matched);
  v1.u32(static_cast<std::uint32_t>(d.labels.size()));
  for (const std::string& label : d.labels) {
    v1.u16(static_cast<std::uint16_t>(label.size()));
    v1.bytes({reinterpret_cast<const std::uint8_t*>(label.data()),
              label.size()});
  }
  v1.u64(d.rows.size());
  for (const DeltaRow& row : d.rows) {
    v1.u64(row.subscriber);
    v1.u32(row.label);
    v1.u64(row.mask0);
    v1.u64(row.mask1);
    v1.u64(row.packets);
    v1.u32(row.first_seen);
  }
  seeds.push_back(v1.take());
  for (const std::uint32_t version : {1U, 2U}) {
    ByteWriter hsck;
    hsck.u32(0x4853434bU);  // "HSCK"
    hsck.u32(version);
    hsck.u64(0x3fd999999999999aULL);  // threshold 0.4
    hsck.u64(100000);                 // flows
    hsck.u64(4242);                   // matched
    if (version == 2) hsck.u32(0);    // empty label table
    hsck.u64(0);                      // entry count
    seeds.push_back(hsck.take());
  }
  return seeds;
}

std::vector<Bytes> build_corpus() {
  std::vector<Bytes> corpus = valid_seeds();
  for (Bytes& seed : rejection_seeds()) corpus.push_back(std::move(seed));
  return corpus;
}

// HSVD offsets: magic u32 @0, version u32 @4, collector u32 @8, seq u32
// @12, epoch u32 @16, kind u8 @20, threshold u64 @21, flows u64 @29,
// matched u64 @37, label count u32 @45, then labels, then the row count
// u64, then variable-length rows.
constexpr std::size_t kLabelCountAt = 45;
constexpr std::size_t kNone = ~std::size_t{0};

std::uint64_t get_be(std::span<const std::uint8_t> data, std::size_t at,
                     unsigned bytes) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < bytes; ++i) v = (v << 8) | data[at + i];
  return v;
}

void set_be(Bytes& data, std::size_t at, std::uint64_t v, unsigned bytes) {
  if (at + bytes > data.size()) return;
  for (unsigned i = 0; i < bytes; ++i) {
    data[at + i] = static_cast<std::uint8_t>(v >> (8 * (bytes - 1 - i)));
  }
}

// Offset of the u64 row count, found by walking the label table; kNone
// when the labels do not parse.
std::size_t row_count_offset(const Bytes& data) {
  if (data.size() < kLabelCountAt + 4) return kNone;
  const std::uint64_t labels = get_be(data, kLabelCountAt, 4);
  std::size_t at = kLabelCountAt + 4;
  for (std::uint64_t i = 0; i < labels; ++i) {
    if (at + 2 > data.size()) return kNone;
    at += 2 + get_be(data, at, 2);
  }
  return at + 8 <= data.size() ? at : kNone;
}

// Start offsets of the rows that fit in `data` (each row: u64 subscriber,
// u32 label, u8 flags, u64 mask0, [u64 mask1], u32|u64 packets, u32
// first_seen).
std::vector<std::size_t> row_offsets(const Bytes& data) {
  std::vector<std::size_t> rows;
  const std::size_t count_at = row_count_offset(data);
  if (count_at == kNone) return rows;
  std::size_t at = count_at + 8;
  while (at + 13 <= data.size()) {
    const std::uint8_t flags = data[at + 12];
    const std::size_t len = 29 + ((flags & 1U) ? 8 : 0) + ((flags & 2U) ? 4 : 0);
    if (at + len > data.size()) break;
    rows.push_back(at);
    at += len;
  }
  return rows;
}

void structure_mutate(Bytes& data, haystack::util::Pcg32& rng) {
  if (data.size() < 57) return;
  switch (rng.bounded(7)) {
    case 0:  // kind byte: kSnapshot, or out-of-range values
      data[20] = static_cast<std::uint8_t>(rng.bounded(8));
      break;
    case 1: {  // label count corruption (tiny, huge, off-by-one)
      constexpr std::uint32_t kCounts[] = {0, 1, 2, 4, 0xffff, 0xffffffff};
      set_be(data, kLabelCountAt, kCounts[rng.bounded(6)], 4);
      break;
    }
    case 2: {  // first label's length prefix lies
      constexpr std::uint16_t kLens[] = {0, 1, 7, 0x00ff, 0xfffe, 0xffff};
      set_be(data, kLabelCountAt + 4, kLens[rng.bounded(6)], 2);
      break;
    }
    case 3: {  // row count: off by one, huge, or multiplication-overflow
               // bait around 2^64 / 29 (29 bytes = the smallest row)
      const std::size_t at = row_count_offset(data);
      if (at == kNone) break;
      const std::uint64_t real = get_be(data, at, 8);
      const std::uint64_t counts[] = {0,
                                      real + 1,
                                      real - 1,
                                      0xffffffffULL,
                                      0x08d3dcb08d3dcb08ULL,
                                      0x08d3dcb08d3dcb09ULL,
                                      0xffffffffffffffffULL};
      set_be(data, at, counts[rng.bounded(7)], 8);
      break;
    }
    case 4: {  // a row's label index
      const auto rows = row_offsets(data);
      if (rows.empty()) break;
      const std::size_t at =
          rows[rng.bounded(static_cast<std::uint32_t>(rows.size()))];
      set_be(data, at + 8, rng.bounded(16), 4);
      break;
    }
    case 5: {  // a row's flag byte: unknown bits, or a width flip that
               // makes the rest of the row (and every later one) shift
      const auto rows = row_offsets(data);
      if (rows.empty()) break;
      const std::size_t at =
          rows[rng.bounded(static_cast<std::uint32_t>(rows.size()))];
      constexpr std::uint8_t kFlags[] = {0x00, 0x01, 0x02, 0x03, 0x04, 0xff};
      data[at + 12] = kFlags[rng.bounded(6)];
      break;
    }
    default:  // version field, or truncate/extend around the row boundary
      if (rng.chance(0.25)) {
        set_be(data, 4, rng.bounded(4), 4);
      } else if (rng.chance(0.5)) {
        data.resize(data.size() -
                    1 - rng.bounded(static_cast<std::uint32_t>(
                            std::min<std::size_t>(data.size() - 1, 41))));
      } else {
        const std::uint32_t extra = 1 + rng.bounded(41);
        for (std::uint32_t i = 0; i < extra; ++i) data.push_back(0);
      }
      break;
  }
}

bool check(std::span<const std::uint8_t> input) {
  EvidenceDelta first;
  std::string error;
  const bool accepted = decode_delta(input, first, &error);
  if (accepted) {
    if (!error.empty()) return false;  // success must clear the error
    if (get_be(input, 4, 4) != kDeltaVersion) {
      return false;  // only HSVD v2 may decode
    }
    for (const DeltaRow& row : first.rows) {
      if (row.label >= first.labels.size()) return false;
    }
    // Canonical round-trip: the decoder admits exactly the encoder image.
    const Bytes reencoded = encode_delta(first);
    if (reencoded.size() != input.size() ||
        !std::equal(reencoded.begin(), reencoded.end(), input.begin())) {
      return false;
    }
  } else if (error.empty()) {
    return false;  // rejection must carry a reason
  }
  // Determinism: a second decode of the same bytes agrees.
  EvidenceDelta second;
  return decode_delta(input, second, nullptr) == accepted;
}

}  // namespace

#ifdef HAYSTACK_LIBFUZZER
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  (void)check({data, size});
  return 0;
}
#else
int main(int argc, char** argv) {
  const auto config = haystack::fuzz::parse_args(argc, argv);
  for (const Bytes& seed : valid_seeds()) {
    EvidenceDelta out;
    if (!decode_delta(seed, out) || !check(seed)) {
      std::fprintf(stderr, "fuzz_vantage_delta: valid seed rejected\n");
      return 1;
    }
  }
  for (const Bytes& seed : rejection_seeds()) {
    EvidenceDelta out;
    std::string error;
    if (decode_delta(seed, out, &error) || error.empty()) {
      std::fprintf(stderr,
                   "fuzz_vantage_delta: retired-format seed accepted\n");
      return 1;
    }
  }
  return haystack::fuzz::run_fuzz("fuzz_vantage_delta", config,
                                  build_corpus(), structure_mutate, check);
}
#endif
