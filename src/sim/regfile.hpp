// The ternary register file (TRF): nine general-purpose 9-trit registers,
// two asynchronous read ports and one synchronous write port (paper §IV-B).
#pragma once

#include <array>
#include <cstdint>

#include "isa/instruction.hpp"
#include "ternary/word.hpp"

namespace art9::sim {

class RegFile {
 public:
  // Program load rejects register fields outside T0..T8
  // (check_t9_program); at() keeps any other misuse loud.
  [[nodiscard]] const ternary::Word9& read(int index) const {
    return regs_.at(static_cast<std::size_t>(index));
  }

  void write(int index, const ternary::Word9& value) {
    regs_.at(static_cast<std::size_t>(index)) = value;
  }

  [[nodiscard]] const std::array<ternary::Word9, isa::kNumRegisters>& all() const noexcept {
    return regs_;
  }

  friend bool operator==(const RegFile&, const RegFile&) = default;

 private:
  std::array<ternary::Word9, isa::kNumRegisters> regs_{};
};

}  // namespace art9::sim
