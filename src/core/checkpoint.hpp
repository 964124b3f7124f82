// Detector checkpoint/restore: the "HSCK" format.
//
// A collector that crashes or restarts must not re-observe weeks of flow
// history to get back to its detection state: the entire per-(subscriber,
// service) evidence map — bitmasks, packet totals, first-seen and
// satisfied hours — serializes into a compact binary checkpoint and
// restores bit-for-bit. The differential suite verifies that a mid-run
// save → restore → continue produces exactly the evidence masks and
// detection hours of an uninterrupted run.
//
// Format, version 3 (big-endian, via flow::ByteWriter):
//
//   u32  magic   "HSCK" (0x4853434b)
//   u32  version (kCheckpointVersion = 3)
//   u64  threshold, IEEE-754 bit pattern of DetectorConfig::threshold
//   u64  stats.flows
//   u64  stats.matched
//   label table (core/intern.hpp serialize(): u32 count, then per label
//     u16 length + raw bytes, in handle order) — rule names in rule
//     order, plus "svc/<id>" labels for evidence rows whose service has
//     no rule
//   u64  group count (distinct subscribers, ascending)
//   per group: u64 subscriber, u32 row count (>= 1), then the
//   subscriber's rows sorted by service:
//     u32 label handle (index into the label table)
//     u8  flags: bit0 = mask word 1 present, bit1 = packets written as
//         u64 (else u32), bit2 = satisfied_hour present
//     u64 mask[0]; u64 mask[1] when bit0
//     u32 or u64 packets (canonical width: u64 only when > 0xffffffff)
//     u16 first_seen; u16 satisfied_hour when bit2
//
// Rows are keyed by rule name, not service id: restore resolves each
// label through the restoring detector's own rule set, so a blob survives
// service-id renumbering as long as rule names are stable. `distinct` is
// not stored — it is popcount(mask) by detector invariant. Hours are u16
// because the study clock is short (util::kStudyHours = 336).
//
// Restore is strict: it accepts exactly version 3 and rejects any other
// version (no silent migration — an operator restores with the binary
// that wrote the checkpoint, or replays), a different threshold (evidence
// satisfied under one threshold must not seed a detector running
// another), truncation, trailing bytes, unknown flags, non-canonical
// field widths, out-of-order groups, and labels the rule set does not
// know. A rejected blob leaves the detector untouched.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector.hpp"
#include "core/sharded_detector.hpp"

namespace haystack::core {

/// Resolves an interned evidence label back to a service id via `rules`
/// ("svc/<id>" labels carry the id directly; anything else is a rule
/// name). Returns false for labels the rule set does not know. Shared by
/// checkpoint restore and the vantage delta merge (src/vantage/), which
/// must remap evidence keyed by another process's label strings.
[[nodiscard]] bool resolve_service_label(std::string_view label,
                                         const RuleSet& rules, ServiceId& out);

inline constexpr std::uint32_t kCheckpointMagic = 0x4853434bU;  // "HSCK"
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Serializes the full evidence state + throughput counters (see the
/// format above). Identical state produces identical bytes, whichever
/// engine or shard count holds it. A non-null `recorder` gets a
/// kCheckpointSave event (a = entries, b = bytes).
[[nodiscard]] std::vector<std::uint8_t> save_checkpoint_compact(
    const Detector& detector, obs::FlightRecorder* recorder = nullptr);
[[nodiscard]] std::vector<std::uint8_t> save_checkpoint_compact(
    const ShardedDetector& detector, obs::FlightRecorder* recorder = nullptr);

/// Restores an HSCK v3 blob into `detector`, replacing its evidence state.
/// Returns false — leaving the detector untouched — on any of the
/// rejections listed above. `error`, when non-null, receives a
/// human-readable reason. A non-null `recorder` gets kCheckpointRestore
/// (a = entries, b = bytes) on success, kCheckpointRejected (a = bytes) on
/// refusal.
bool restore_checkpoint(std::span<const std::uint8_t> blob,
                        Detector& detector, std::string* error = nullptr,
                        obs::FlightRecorder* recorder = nullptr);
bool restore_checkpoint(std::span<const std::uint8_t> blob,
                        ShardedDetector& detector,
                        std::string* error = nullptr,
                        obs::FlightRecorder* recorder = nullptr);

}  // namespace haystack::core
