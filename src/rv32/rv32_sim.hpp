// Functional RV32I(+M) simulators.
//
// Their retired-instruction stream feeds the instruction-level timing
// models of PicoRV32 and VexRiscv (src/rv32/cycle_models.*), which is how
// Tables II and III obtain baseline cycle counts without the cores' RTL.
// The stream of the pre-decoded kinds is built by the sim::Engine facade
// (sim/engine.hpp) from step(), pc() and taken(); the seed loop streams
// its own, as the oracle the facade's stream is checked against.
//
// Two execution loops share the architecture (mirroring the ART-9 side):
//
//  * Rv32Simulator — the reference model, rebuilt on an eagerly
//    pre-decoded Rv32DecodedImage: dispatch is one dense-kind switch with
//    precomputed PC chains (see rv32_decoded_image.hpp), and any number
//    of instances can share one immutable image across threads.
//  * LazyRv32Simulator — the seed decode-on-fetch loop (range check,
//    modulo and divide per fetch), kept as the differential baseline.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "rv32/rv32_decoded_image.hpp"
#include "rv32/rv32_program.hpp"

namespace art9::rv32 {

/// One retired instruction, as seen by timing models.
struct Rv32Retired {
  Rv32Instruction inst;
  uint32_t pc = 0;
  bool taken = false;  // for branches: condition true
};

struct Rv32RunStats {
  uint64_t instructions = 0;
  bool halted = false;  // reached ecall/ebreak

  friend bool operator==(const Rv32RunStats&, const Rv32RunStats&) = default;
};

/// Architectural state shared by every rv32 backend.  Differential and
/// conformance tests compare these field-by-field (registers, every RAM
/// byte, PC).
struct Rv32ArchState {
  std::array<uint32_t, 32> regs{};
  std::vector<uint8_t> ram;
  uint32_t pc = 0;

  friend bool operator==(const Rv32ArchState&, const Rv32ArchState&) = default;
};

/// Overflow-safe RAM bounds check shared by every rv32 data-memory model:
/// throws Rv32SimError naming the faulting address unless
/// [address, address + size) is contained in a RAM of `ram_bytes` bytes.
/// (`address + size` can wrap uint32_t — the seed loop's checks missed
/// that for SH/SW near the top of the address space.)
inline void check_ram_range(uint32_t address, uint32_t size, std::size_t ram_bytes,
                            const char* what) {
  if (address > ram_bytes || size > ram_bytes - address) {
    throw Rv32SimError("rv32 " + std::string(what) + " of " + std::to_string(size) +
                       " bytes out of range at address " + std::to_string(address));
  }
}

namespace detail {

/// Little-endian byte assembly over a bounds-checked range.
inline uint32_t ram_load(const std::vector<uint8_t>& ram, uint32_t address, uint32_t size,
                         const char* what) {
  check_ram_range(address, size, ram.size(), what);
  uint32_t v = 0;
  for (uint32_t i = 0; i < size; ++i) v |= static_cast<uint32_t>(ram[address + i]) << (8 * i);
  return v;
}

inline void ram_store(std::vector<uint8_t>& ram, uint32_t address, uint32_t value, uint32_t size,
                      const char* what) {
  check_ram_range(address, size, ram.size(), what);
  for (uint32_t i = 0; i < size; ++i) ram[address + i] = static_cast<uint8_t>(value >> (8 * i));
}

/// The reference datapath: host uint32_t registers and a byte RAM.
/// Shared by Rv32Simulator and the superblock backend, so both dispatch
/// loops execute through the same execute_rv32 semantics.
struct HostDatapath {
  std::array<uint32_t, 32>& regs;
  std::vector<uint8_t>& ram;

  [[nodiscard]] uint32_t read(unsigned reg) const { return regs[reg]; }
  void write(unsigned reg, uint32_t value) {
    if (reg != 0) regs[reg] = value;
  }
  [[nodiscard]] uint32_t load(uint32_t address, uint32_t size) const {
    return ram_load(ram, address, size, "load");
  }
  void store(uint32_t address, uint32_t value, uint32_t size) {
    ram_store(ram, address, value, size, "store");
  }
};

}  // namespace detail

/// The reference RV32 simulator: executes off a pre-decoded image.
class Rv32Simulator {
 public:
  explicit Rv32Simulator(const Rv32Program& program, std::size_t ram_bytes = 1u << 20);

  /// Runs off a shared pre-decoded image (SimulationService, differential
  /// harnesses).  `image` must be non-null.
  explicit Rv32Simulator(std::shared_ptr<const Rv32DecodedImage> image,
                         std::size_t ram_bytes = 1u << 20);

  /// Executes one instruction; false when ECALL/EBREAK retires (halt
  /// convention, mirroring the ART-9 self-jump).
  bool step();

  /// Runs until halt or `max_instructions` (the halting ECALL/EBREAK is
  /// not counted, matching the ART-9 convention of the halt pseudo-op
  /// never retiring).
  Rv32RunStats run(uint64_t max_instructions = 100'000'000);

  /// The branch outcome of the instruction the last step() executed: true
  /// for a taken branch and for every JAL/JALR, even one whose target is
  /// its own fall-through (the timing models charge the redirect).
  [[nodiscard]] bool taken() const noexcept { return taken_; }

  [[nodiscard]] uint32_t reg(int index) const { return regs_.at(static_cast<std::size_t>(index)); }
  void set_reg(int index, uint32_t value) {
    if (index != 0) regs_.at(static_cast<std::size_t>(index)) = value;
  }
  [[nodiscard]] uint32_t pc() const noexcept { return pc_; }

  [[nodiscard]] uint32_t load_word(uint32_t address) const;
  void store_word(uint32_t address, uint32_t value);
  [[nodiscard]] uint8_t load_byte(uint32_t address) const;

  /// Snapshot of the architectural state (registers, RAM bytes, PC).
  [[nodiscard]] Rv32ArchState state() const { return Rv32ArchState{regs_, ram_, pc_}; }

  /// Replaces the architectural state wholesale (snapshot restore),
  /// adopting the snapshot's RAM size and re-syncing the fetch row
  /// (an out-of-program PC resolves to the trap row, like any other
  /// dynamic control-flow target).  x0 is forced back to zero.
  void restore(const Rv32ArchState& state) {
    regs_ = state.regs;
    regs_[0] = 0;
    ram_ = state.ram;
    pc_ = state.pc;
    row_ = image_->row_of(pc_);
  }

  /// The shared pre-decoded image this simulator executes.
  [[nodiscard]] const Rv32DecodedImage& image() const noexcept { return *image_; }

 protected:
  // State and the per-instruction loop are shared with the superblock
  // tier (rv32_superblock.hpp), which only adds its block loop.

  /// Steps one instruction at a time until halt or `stats.instructions`
  /// reaches `max_instructions`.
  void step_until(Rv32RunStats& stats, uint64_t max_instructions);

  std::shared_ptr<const Rv32DecodedImage> image_;
  // Raw row-table base, cached so the hot loop chases one pointer
  // instead of image_ -> vector -> row.
  const Rv32DecodedOp* rows_ = nullptr;
  std::vector<uint8_t> ram_;
  std::array<uint32_t, 32> regs_{};
  uint32_t pc_ = 0;
  // Current fetch row, kept in lock-step with pc_ so sequential flow and
  // static control flow chase precomputed row links instead of dividing.
  uint32_t row_ = 0;
  bool taken_ = false;  // see taken()

 private:
  [[nodiscard]] uint32_t ram_at(uint32_t address, uint32_t size) const;
};

/// The seed's decode-on-fetch rv32 loop: per-fetch range check, modulo
/// and divide.  Kept as the differential baseline for the pre-decoded
/// dispatch fast path (tests, bench_micro_sim).
class LazyRv32Simulator {
 public:
  using Observer = std::function<void(const Rv32Retired&)>;

  explicit LazyRv32Simulator(const Rv32Program& program, std::size_t ram_bytes = 1u << 20);

  /// Executes one instruction, as Rv32Simulator::step does, and passes it
  /// to `observer` if one is given — the halting ECALL/EBREAK included,
  /// since the timing models charge it.
  bool step(const Observer& observer = {});
  /// Steps until halt or `max_instructions`, passing every retired
  /// instruction to `observer` if one is given.
  Rv32RunStats run(uint64_t max_instructions = 100'000'000, const Observer& observer = {});

  [[nodiscard]] uint32_t reg(int index) const { return regs_.at(static_cast<std::size_t>(index)); }
  void set_reg(int index, uint32_t value) {
    if (index != 0) regs_.at(static_cast<std::size_t>(index)) = value;
  }
  [[nodiscard]] uint32_t pc() const noexcept { return pc_; }

  [[nodiscard]] uint32_t load_word(uint32_t address) const;
  void store_word(uint32_t address, uint32_t value);
  [[nodiscard]] uint8_t load_byte(uint32_t address) const;

  [[nodiscard]] Rv32ArchState state() const { return Rv32ArchState{regs_, ram_, pc_}; }

  /// Replaces the architectural state wholesale (snapshot restore),
  /// adopting the snapshot's RAM size.  x0 is forced back to zero.
  void restore(const Rv32ArchState& state) {
    regs_ = state.regs;
    regs_[0] = 0;
    ram_ = state.ram;
    pc_ = state.pc;
  }

 private:
  const Rv32Instruction& fetch() const;
  [[nodiscard]] uint32_t ram_at(uint32_t address, uint32_t size) const;

  std::vector<Rv32Instruction> code_;
  uint32_t entry_;
  std::vector<uint8_t> ram_;
  std::array<uint32_t, 32> regs_{};
  uint32_t pc_ = 0;
};

}  // namespace art9::rv32
