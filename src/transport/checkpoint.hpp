// Versioned, CRC-checked checkpoint files for the soak.
//
// File layout (all little-endian; see common/bytes.hpp):
//
//   u32  magic            "RFDC" (0x43444652)
//   u32  version          format version (currently 1)
//   u64  config_fingerprint  hash of the producing configuration; a
//                            loader refuses a snapshot from a different
//                            config instead of resuming into nonsense
//   i64  tick             driver tick the snapshot was taken at
//   f64  now_ms           driver clock at the snapshot
//   u64  payload_size
//   ...  payload          the engine's WindowBoundary::save_state bytes
//                         (nodes, RNGs, pumps, truth, ledger, transport)
//   u32  crc32            over every preceding byte
//
// Writes are atomic: the file is written to `<path>.tmp` and renamed
// over the destination, so a crash mid-checkpoint leaves the previous
// snapshot intact - the resume path always finds either the old or the
// new checkpoint, never a torn one. A corrupted or truncated file (bad
// magic, unknown version, wrong fingerprint, CRC mismatch, short read)
// is rejected with a reason string.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rfd::transport {

struct CheckpointData {
  std::uint64_t config_fingerprint = 0;
  std::int64_t tick = 0;
  double now_ms = 0.0;
  std::vector<std::uint8_t> payload;
};

/// Serializes `data` to `path` (tmp + rename). Returns false and fills
/// `error` on I/O failure.
bool write_checkpoint(const std::string& path, const CheckpointData& data,
                      std::string& error);

/// Loads and verifies `path`. Returns false and fills `error` when the
/// file is missing, torn, corrupt, from an unknown format version, or
/// (when `expected_fingerprint` is nonzero) from a different config.
bool read_checkpoint(const std::string& path,
                     std::uint64_t expected_fingerprint, CheckpointData& out,
                     std::string& error);

}  // namespace rfd::transport
