// Versioned deep snapshot/restore of a full LiquidSystem (the robustness
// layer under warm-start pools, drain-on-fault job retry, and the fuzzer's
// O(1) deep replay).
//
// A SystemSnapshot is one self-describing binary blob:
//
//   magic "LASN" | format version | architectural-config section |
//   dynamic-state sections (system, pipeline+caches, memories, bus,
//   peripherals, watchdog, wrappers, controller) | FNV-1a checksum
//
// The capture is *complete* for everything architecturally observable: CPU
// windows/PSR/WIM/Y/ASRs, wedge and error flags, pipeline latches, both
// caches (tags, LRU, parity, line data, replacement RNG), SRAM/SDRAM
// contents with parity shadows, open-row registers, peripheral registers,
// the watchdog deadline, the leon_ctrl state machine, queued responses,
// and the cycle counter — so `run(N)` is bit-identical to `run(k);
// snapshot; restore; run(N-k)` on any system built from a compatible
// SystemConfig (the snapshot-identity property test enforces exactly
// this across the fast-path and flight-recorder grid).
//
// Host-side accelerator state (decode caches, predecoded I-line mirrors,
// AHB decode memo) is deliberately NOT captured: it is rebuilt on demand
// and a snapshot taken with host fast paths on restores bit-identically
// into a system running with them off, and vice versa.  The flight
// recorder ring is also host-side observability and stays with the
// restoring system.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/snapio.hpp"
#include "common/types.hpp"

namespace la::sim {

struct SystemSnapshot {
  static constexpr u32 kMagic = snap_tag("LASN");
  static constexpr u32 kVersion = 1;

  /// The complete serialized stream (header + payload + checksum).  This
  /// IS the cross-process wire format: write data to a file, read it back,
  /// deserialize(), restore().
  Bytes data;

  bool empty() const { return data.empty(); }
  std::size_t size_bytes() const { return data.size(); }

  const Bytes& serialize() const { return data; }

  /// Header/checksum validation without a full parse.  `err` (optional)
  /// receives a one-line reason on failure.
  static bool validate(const Bytes& blob, std::string* err = nullptr);

  /// Adopt a serialized blob (validates first).
  static std::optional<SystemSnapshot> deserialize(Bytes blob,
                                                   std::string* err = nullptr);
};

/// Shared warm-start pool: snapshot per key ("boot|<arch>" for post-boot
/// images, "prog|<arch>|<digest>" for post-load images), first writer wins.
/// Holds at most kCapacity entries (~6 MB each).  To make room it evicts
/// the least recently used entry that is not a post-boot image, and a
/// "boot|" entry only when nothing else is left: one boot image serves
/// every program of its architecture, so a stream of one-off programs must
/// not push it out.  A get() hit counts as a use.
/// Thread-safe; snapshots are immutable once published, so readers share
/// them by shared_ptr without copying the (multi-MB) blob.
class SnapshotPool {
 public:
  static constexpr std::size_t kCapacity = 32;

  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 inserts = 0;
    u64 evictions = 0;
  };

  /// Snapshot for `key`, or null (counts a hit/miss).
  std::shared_ptr<const SystemSnapshot> get(const std::string& key) {
    std::lock_guard lk(mu_);
    auto it = pool_.find(key);
    if (it == pool_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    it->second.last_use = ++clock_;
    return it->second.snap;
  }

  /// Publish a snapshot for `key`.  An existing entry wins (the first
  /// capture is as good as any later one and racing writers must agree).
  void put(const std::string& key, SystemSnapshot snap) {
    auto sp = std::make_shared<const SystemSnapshot>(std::move(snap));
    std::lock_guard lk(mu_);
    if (pool_.count(key) != 0) return;
    if (pool_.size() >= kCapacity) {
      // Order by (is a boot image, last use): the minimum is the LRU
      // non-boot entry while one exists.
      const auto rank = [](const auto& e) {
        return std::pair(e.first.starts_with("boot|"), e.second.last_use);
      };
      const auto victim = std::min_element(
          pool_.begin(), pool_.end(),
          [&](const auto& a, const auto& b) { return rank(a) < rank(b); });
      pool_.erase(victim);
      ++stats_.evictions;
    }
    pool_.emplace(key, Entry{std::move(sp), ++clock_});
    ++stats_.inserts;
  }

  bool contains(const std::string& key) const {
    std::lock_guard lk(mu_);
    return pool_.count(key) != 0;
  }

  std::size_t size() const {
    std::lock_guard lk(mu_);
    return pool_.size();
  }

  /// Total serialized bytes held (capacity telemetry).
  std::size_t bytes() const {
    std::lock_guard lk(mu_);
    std::size_t n = 0;
    for (const auto& [k, v] : pool_) n += v.snap->size_bytes();
    return n;
  }

  Stats stats() const {
    std::lock_guard lk(mu_);
    return stats_;
  }

 private:
  struct Entry {
    std::shared_ptr<const SystemSnapshot> snap;
    u64 last_use = 0;  // clock_ at insert or last get() hit
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> pool_;
  u64 clock_ = 0;
  Stats stats_;
};

}  // namespace la::sim
