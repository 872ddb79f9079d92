#include "serve/image_cache.hpp"

#include <utility>

#include "isa/assembler.hpp"
#include "rv32/rv32_assembler.hpp"
#include "xlat/framework.hpp"

namespace art9::serve {

std::string_view image_format_name(ImageFormat format) noexcept {
  switch (format) {
    case ImageFormat::kArt9Asm: return "art9";
    case ImageFormat::kRv32Asm: return "rv32";
    case ImageFormat::kRv32Translate: return "rv32_translate";
  }
  return "unknown";
}

std::optional<ImageFormat> parse_image_format(std::string_view name) noexcept {
  if (name == "art9") return ImageFormat::kArt9Asm;
  if (name == "rv32") return ImageFormat::kRv32Asm;
  if (name == "rv32_translate") return ImageFormat::kRv32Translate;
  return std::nullopt;
}

std::string hex64(uint64_t value) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

namespace {

/// Builds the EngineImage for one (format, source) pair — the pipeline
/// run the cache exists to amortize.  Returns the image, its estimated
/// resident bytes, and whether it runs on the rv32 kinds.
struct Built {
  sim::EngineImage image;
  std::size_t bytes = 0;
  bool rv32 = false;
};

Built build(ImageFormat format, std::string_view source) {
  Built out;
  switch (format) {
    case ImageFormat::kArt9Asm: {
      auto image = sim::decode(isa::assemble(source));
      // Estimate: the pre-decoded rows dominate, plus the retained
      // source-size order of magnitude.  96 B a row over-covers the
      // 30-byte dispatch row plus the ~42 B a row of superblock plan
      // that a superblock or fleet job adds; the charge is kept so the
      // cache holds as many images as it always has.
      out.bytes = image->rows() * 96 + source.size();
      out.image = sim::EngineImage(std::move(image));
      break;
    }
    case ImageFormat::kRv32Asm: {
      auto image = rv32::decode(rv32::assemble_rv32(source));
      out.bytes = image->rows() * 64 + source.size();
      out.image = sim::EngineImage(std::move(image));
      out.rv32 = true;
      break;
    }
    case ImageFormat::kRv32Translate: {
      const xlat::TranslationResult translated =
          xlat::SoftwareFramework().translate_source(source);
      auto image = sim::decode(translated.program);
      out.bytes = image->rows() * 96 + source.size();
      out.image = sim::EngineImage(std::move(image));
      break;
    }
  }
  return out;
}

std::string content_id(ImageFormat format, std::string_view source) {
  const uint8_t tag = static_cast<uint8_t>(format);
  return hex64(fnv1a_64(source.data(), source.size(), fnv1a_64(&tag, 1)));
}

}  // namespace

ImageCache::Put ImageCache::put(ImageFormat format, std::string_view source) {
  std::string id = content_id(format, source);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(id);
    if (it != entries_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return Put{std::move(id), true, it->second.rv32};
    }
  }

  // Build outside the lock: one slow translate must not serialize every
  // other request on the cache mutex.
  Built built = build(format, source);

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(id);
  if (it != entries_.end()) {
    // Another connection built the same program concurrently; its entry
    // stands and this build is discarded — still a pipeline run.
    ++misses_;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return Put{std::move(id), false, it->second.rv32};
  }
  ++misses_;
  lru_.push_front(id);
  Entry entry{std::move(built.image), built.bytes, built.rv32, lru_.begin()};
  bytes_ += entry.bytes;
  const bool rv32 = entry.rv32;
  entries_.emplace(id, std::move(entry));
  evict_over_budget_locked(id);
  return Put{std::move(id), false, rv32};
}

void ImageCache::evict_over_budget_locked(const std::string& keep) {
  while (bytes_ > budget_ && !lru_.empty()) {
    const std::string& victim = lru_.back();
    if (victim == keep) break;  // never evict the entry just inserted
    auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
}

std::optional<sim::EngineImage> ImageCache::get(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.image;
}

ImageCache::Stats ImageCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.entries = entries_.size();
  out.bytes = bytes_;
  out.budget_bytes = budget_;
  return out;
}

}  // namespace art9::serve
