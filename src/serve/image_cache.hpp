// Content-hash image cache: the amortization in front of POST /v1/jobs.
//
// The expensive part of serving a simulation request is not running it —
// it is the assemble / translate / pre-decode pipeline that turns source
// text into a shareable EngineImage.  libriscv's webapi splits
// POST /compile from POST /execute with a cache between them for exactly
// this reason; ImageCache is that cache for the three front-end formats:
//
//   art9            ART-9 assembly  -> isa::assemble -> sim::decode
//   rv32            RV32I(+M) asm   -> rv32::assemble_rv32 -> rv32::decode
//   rv32_translate  RV32I(+M) asm   -> SoftwareFramework::translate
//                                    -> sim::decode   (an ART-9 image)
//
// The id is the 64-bit FNV-1a of (format byte ++ source bytes), so the
// same program uploaded twice — by any client — is one cache entry and
// one pipeline run.  Entries are LRU-evicted against a byte budget;
// images already checked out by running jobs stay alive through their
// shared_ptr regardless of eviction.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "sim/engine.hpp"
#include "sim/snapshot.hpp"

namespace art9::serve {

enum class ImageFormat : uint8_t { kArt9Asm = 0, kRv32Asm = 1, kRv32Translate = 2 };

/// Stable names: "art9", "rv32", "rv32_translate" (the ?format= values).
[[nodiscard]] std::string_view image_format_name(ImageFormat format) noexcept;
[[nodiscard]] std::optional<ImageFormat> parse_image_format(std::string_view name) noexcept;

/// 64-bit FNV-1a — the hash behind image ids and result digests (one
/// definition, shared with the snapshot checksum).
using sim::fnv1a_64;

/// 16 lower-case hex digits.
[[nodiscard]] std::string hex64(uint64_t value);

class ImageCache {
 public:
  struct Stats {
    uint64_t hits = 0;        // put() found the entry (pipeline skipped)
    uint64_t misses = 0;      // put() ran the pipeline
    uint64_t evictions = 0;   // entries dropped by the byte budget
    std::size_t entries = 0;
    std::size_t bytes = 0;         // current estimated footprint
    std::size_t budget_bytes = 0;
  };

  struct Put {
    std::string id;
    bool hit = false;
    bool rv32 = false;  // true when the image executes on the rv32 kinds
  };

  explicit ImageCache(std::size_t byte_budget = 64u << 20) : budget_(byte_budget) {}

  /// Looks up (or builds and inserts) the image for `source`.  Throws the
  /// pipeline's own error (isa::AsmError, rv32::Rv32AsmError,
  /// sim::SimError) on bad source — nothing is cached for a failed build.
  /// The just-inserted entry is never evicted, even when it alone
  /// overflows the budget.
  Put put(ImageFormat format, std::string_view source);

  /// The image behind `id`; nullopt when unknown or evicted (the caller
  /// answers "re-upload").  Refreshes LRU recency.
  [[nodiscard]] std::optional<sim::EngineImage> get(const std::string& id);

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    sim::EngineImage image;
    std::size_t bytes = 0;
    bool rv32 = false;
    std::list<std::string>::iterator lru;  // position in lru_
  };

  void evict_over_budget_locked(const std::string& keep);

  std::size_t budget_;
  mutable std::mutex mutex_;
  std::size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
};

}  // namespace art9::serve
