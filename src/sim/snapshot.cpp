#include "sim/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>

namespace art9::sim {

uint64_t fnv1a_64(const void* data, std::size_t size, uint64_t hash) noexcept {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

constexpr uint8_t kMagic[8] = {'A', 'R', 'T', '9', 'S', 'N', 'A', 'P'};
constexpr uint16_t kVersion = 2;
constexpr uint8_t kIsaArt9 = 0;
constexpr uint8_t kIsaRv32 = 1;

/// rv32 RAM travels in chunks of this many bytes (the last one may be
/// shorter), and may span at most the 32-bit address space.
constexpr std::size_t kChunkBytes = 64;
constexpr uint64_t kMaxRamBytes = uint64_t{1} << 32;

/// Little-endian appender: the on-disk format is fixed regardless of
/// host endianness, and each field lands in one bulk insert.
template <typename T>
void put(std::vector<uint8_t>& out, T value) {
  const auto v = static_cast<std::make_unsigned_t<T>>(value);
  uint8_t bytes[sizeof(T)];
  for (std::size_t b = 0; b < sizeof(T); ++b) bytes[b] = static_cast<uint8_t>(v >> (8 * b));
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

/// Fills in a u32 count reserved (as zero) at `at` once the sparse
/// entries behind it have been written.
void patch_u32(std::vector<uint8_t>& out, std::size_t at, uint32_t value) {
  for (std::size_t b = 0; b < 4; ++b) out[at + b] = static_cast<uint8_t>(value >> (8 * b));
}

/// True when all `n` bytes at `p` are zero.  A full chunk is tested as
/// eight 64-bit words (memcpy keeps the loads alignment-safe); only a
/// short last chunk is tested byte by byte.
bool all_zero(const uint8_t* p, std::size_t n) noexcept {
  if (n == kChunkBytes) {
    uint64_t words[kChunkBytes / sizeof(uint64_t)];
    std::memcpy(words, p, kChunkBytes);
    uint64_t any = 0;
    for (const uint64_t w : words) any |= w;
    return any == 0;
  }
  return std::all_of(p, p + n, [](uint8_t byte) { return byte == 0; });
}

/// Bounds-checked little-endian cursor over the payload bytes.
class Reader {
 public:
  Reader(const uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] uint8_t u8() { return take(1)[0]; }

  [[nodiscard]] uint16_t u16() {
    const uint8_t* p = take(2);
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
  }

  [[nodiscard]] uint32_t u32() {
    const uint8_t* p = take(4);
    uint32_t v = 0;
    for (int b = 0; b < 4; ++b) v |= static_cast<uint32_t>(p[b]) << (8 * b);
    return v;
  }

  [[nodiscard]] uint64_t u64() {
    const uint8_t* p = take(8);
    uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v |= static_cast<uint64_t>(p[b]) << (8 * b);
    return v;
  }

  [[nodiscard]] int16_t i16() { return static_cast<int16_t>(u16()); }
  [[nodiscard]] int64_t i64() { return static_cast<int64_t>(u64()); }

  [[nodiscard]] const uint8_t* take(std::size_t n) {
    if (n > size_ - pos_) throw SimError("snapshot: truncated payload");
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  const uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Validated i16 -> Word9 (registers and TDM rows share the range).
ternary::Word9 word9_of(int16_t value, const char* what) {
  if (value < -ternary::Word9::kMaxValue || value > ternary::Word9::kMaxValue) {
    throw SimError("snapshot: " + std::string(what) + " value " + std::to_string(value) +
                   " outside the 9-trit range");
  }
  return ternary::Word9::from_int(value);
}

/// The canonical-order rule shared by TDM rows and RAM chunks: each
/// entry's index is in range and above the previous entry's.
void check_sparse_index(const char* what, uint64_t index, uint64_t& next, uint64_t limit) {
  if (index >= limit || index < next) {
    throw SimError("snapshot: " + std::string(what) + " " + std::to_string(index) +
                   (index >= limit ? " out of range" : " out of order"));
  }
  next = index + 1;
}

[[noreturn]] void throw_zero_entry(const char* what, uint64_t index) {
  throw SimError("snapshot: " + std::string(what) + " " + std::to_string(index) +
                 " is all zero (not canonical)");
}

void put_art9(std::vector<uint8_t>& out, const ArchState& s) {
  put(out, static_cast<int64_t>(s.pc));
  for (int i = 0; i < isa::kNumRegisters; ++i) {
    put(out, static_cast<int16_t>(s.trf.read(i).to_int()));
  }
  put(out, s.tdm.reads());
  put(out, s.tdm.writes());
  // Sparse TDM: only non-zero rows, ascending row order.
  const std::size_t count_at = out.size();
  put(out, uint32_t{0});
  uint32_t rows = 0;
  for (int64_t row = 0; row < TernaryMemory::kRows; ++row) {
    const ternary::Word9& w = s.tdm.peek(row - ternary::Word9::kMaxValue);
    if (w == ternary::Word9{}) continue;
    put(out, static_cast<uint32_t>(row));
    put(out, static_cast<int16_t>(w.to_int()));
    ++rows;
  }
  patch_u32(out, count_at, rows);
}

ArchState read_art9(Reader& in) {
  ArchState s;
  const int64_t pc = in.i64();
  check_t9_address(pc, "snapshot pc");
  s.pc = pc;
  for (int i = 0; i < isa::kNumRegisters; ++i) {
    s.trf.write(i, word9_of(in.i16(), "register"));
  }
  const uint64_t reads = in.u64();
  const uint64_t writes = in.u64();
  const uint32_t nrows = in.u32();
  if (nrows > static_cast<uint32_t>(TernaryMemory::kRows)) {
    throw SimError("snapshot: TDM row count " + std::to_string(nrows) + " exceeds " +
                   std::to_string(TernaryMemory::kRows));
  }
  uint64_t next = 0;
  for (uint32_t i = 0; i < nrows; ++i) {
    const uint32_t row = in.u32();
    check_sparse_index("TDM row", row, next, TernaryMemory::kRows);
    const ternary::Word9 value = word9_of(in.i16(), "TDM row");
    if (value == ternary::Word9{}) throw_zero_entry("TDM row", row);
    s.tdm.poke(static_cast<int64_t>(row) - ternary::Word9::kMaxValue, value);
  }
  s.tdm.set_counters(reads, writes);
  return s;
}

void put_rv32(std::vector<uint8_t>& out, const rv32::Rv32ArchState& s) {
  const std::size_t size = s.ram.size();
  if (size > kMaxRamBytes) {
    throw SimError("snapshot: rv32 RAM size " + std::to_string(size) + " exceeds 2^32 bytes");
  }
  put(out, s.pc);
  for (uint32_t r : s.regs) put(out, r);
  put(out, uint64_t{size});
  // Sparse RAM: only chunks holding a non-zero byte, ascending index.
  const std::size_t count_at = out.size();
  put(out, uint32_t{0});
  uint32_t chunks = 0;
  for (std::size_t at = 0; at < size; at += kChunkBytes) {
    const uint8_t* chunk = s.ram.data() + at;
    const std::size_t n = std::min(kChunkBytes, size - at);
    if (all_zero(chunk, n)) continue;
    put(out, static_cast<uint32_t>(at / kChunkBytes));
    out.insert(out.end(), chunk, chunk + n);
    ++chunks;
  }
  patch_u32(out, count_at, chunks);
}

rv32::Rv32ArchState read_rv32(Reader& in) {
  rv32::Rv32ArchState s;
  s.pc = in.u32();
  for (uint32_t& r : s.regs) r = in.u32();
  if (s.regs[0] != 0) throw SimError("snapshot: rv32 x0 is nonzero");
  // Size and count are checked before the RAM is allocated: a size over
  // the cap is rejected without reserving it.
  const uint64_t size = in.u64();
  if (size > kMaxRamBytes) {
    throw SimError("snapshot: rv32 RAM size " + std::to_string(size) + " exceeds 2^32 bytes");
  }
  const uint64_t slots = (size + kChunkBytes - 1) / kChunkBytes;
  const uint32_t count = in.u32();
  if (count > slots) {
    throw SimError("snapshot: rv32 RAM chunk count " + std::to_string(count) + " exceeds " +
                   std::to_string(slots));
  }
  s.ram.assign(static_cast<std::size_t>(size), 0);
  uint64_t next = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t index = in.u32();
    check_sparse_index("rv32 RAM chunk", index, next, slots);
    const std::size_t at = std::size_t{index} * kChunkBytes;
    const std::size_t n = std::min(kChunkBytes, static_cast<std::size_t>(size) - at);
    const uint8_t* bytes = in.take(n);
    if (all_zero(bytes, n)) throw_zero_entry("rv32 RAM chunk", index);
    std::memcpy(s.ram.data() + at, bytes, n);
  }
  return s;
}

}  // namespace

std::vector<uint8_t> serialize_snapshot(const MachineState& state) {
  std::vector<uint8_t> out;
  out.reserve(256);  // header, registers and the first sparse entries
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  put(out, kVersion);
  if (state.is_art9()) {
    out.push_back(kIsaArt9);
    put_art9(out, state.art9());
  } else {
    out.push_back(kIsaRv32);
    put_rv32(out, state.rv32());
  }
  put(out, fnv1a_64(out.data(), out.size()));
  return out;
}

MachineState deserialize_snapshot(const uint8_t* data, std::size_t size) {
  constexpr std::size_t kHeader = sizeof(kMagic) + 2 + 1;
  if (size < kHeader + 8) throw SimError("snapshot: blob too short");
  const uint64_t stored = Reader(data + size - 8, 8).u64();
  if (stored != fnv1a_64(data, size - 8)) throw SimError("snapshot: checksum mismatch");
  Reader in(data, size - 8);
  if (std::memcmp(in.take(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0) {
    throw SimError("snapshot: bad magic");
  }
  const uint16_t version = in.u16();
  if (version != kVersion) {
    throw SimError("snapshot: unsupported version " + std::to_string(version));
  }
  const uint8_t isa = in.u8();
  MachineState state;
  switch (isa) {
    case kIsaArt9:
      state = MachineState{read_art9(in)};
      break;
    case kIsaRv32:
      state = MachineState{read_rv32(in)};
      break;
    default:
      throw SimError("snapshot: unknown ISA tag " + std::to_string(isa));
  }
  if (in.remaining() != 0) {
    throw SimError("snapshot: " + std::to_string(in.remaining()) + " trailing bytes");
  }
  return state;
}

MachineState deserialize_snapshot(const std::vector<uint8_t>& blob) {
  return deserialize_snapshot(blob.data(), blob.size());
}

}  // namespace art9::sim
