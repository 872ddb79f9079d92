#include "isa/encoding.hpp"

#include <string>

namespace art9::isa {

using ternary::Trit;
using ternary::Word9;

namespace {

// --- field packing helpers (levels = unsigned digit domain) -------------

void put_level(Word9& w, std::size_t i, int level) { w.set(i, Trit(level - 1)); }

int get_level(const Word9& w, std::size_t i) { return w[i].level(); }

/// 2-trit unsigned register index at [lsb+1 : lsb].
void put_ureg(Word9& w, std::size_t lsb, int reg) {
  put_level(w, lsb + 1, reg / 3);
  put_level(w, lsb, reg % 3);
}

int get_ureg(const Word9& w, std::size_t lsb) {
  return get_level(w, lsb + 1) * 3 + get_level(w, lsb);
}

/// Balanced immediate of `width` trits at [lsb+width-1 : lsb].
void put_simm(Word9& w, std::size_t lsb, std::size_t width, int value) {
  int v = value;
  for (std::size_t k = 0; k < width; ++k) {
    int r = v % 3;
    v /= 3;
    if (r > 1) {
      r -= 3;
      ++v;
    } else if (r < -1) {
      r += 3;
      --v;
    }
    w.set(lsb + k, Trit(r));
  }
}

int get_simm(const Word9& w, std::size_t lsb, std::size_t width) {
  int v = 0;
  for (std::size_t k = width; k-- > 0;) v = v * 3 + w[lsb + k].value();
  return v;
}

/// Unsigned 2-trit field (shift amounts).
void put_ushift(Word9& w, std::size_t lsb, int value) {
  put_level(w, lsb + 1, value / 3);
  put_level(w, lsb, value % 3);
}

constexpr int kIshortAndi = 0;
constexpr int kIshortAddi = 1;
constexpr int kIshortSri = 2;
constexpr int kIshortSli = 3;

}  // namespace

std::optional<FieldViolation> field_violation(const Instruction& inst) {
  const auto op = static_cast<unsigned>(inst.op);
  if (op >= static_cast<unsigned>(kNumOpcodes)) {
    return FieldViolation{"opcode", "opcode " + std::to_string(op)};
  }
  const auto violation = [&](std::string_view field) {
    return FieldViolation{field, to_string(inst)};
  };
  const auto is_register = [](int r) { return r >= 0 && r < kNumRegisters; };
  if (!is_register(inst.ta) || !is_register(inst.tb)) return violation("register");
  if (inst.bcond.value() < -1 || inst.bcond.value() > 1) return violation("branch condition");
  const OpcodeSpec& s = spec(inst.op);
  const bool has_immediate = s.format != Format::kRBinary && s.format != Format::kRUnary;
  if (has_immediate && (inst.imm < s.imm_min || inst.imm > s.imm_max)) {
    return violation("immediate");
  }
  return std::nullopt;
}

Word9 encode(const Instruction& inst) {
  if (const std::optional<FieldViolation> v = field_violation(inst)) {
    throw EncodeError(std::string(v->field) + " out of range: " + v->text);
  }
  const OpcodeSpec& s = spec(inst.op);
  Word9 w;  // all-zero trits == all levels 1; every field is overwritten below.
  auto major = [&](int a, int b) {
    put_level(w, 8, a);
    put_level(w, 7, b);
  };
  switch (inst.op) {
    case Opcode::kMv:
    case Opcode::kPti:
    case Opcode::kNti:
    case Opcode::kSti:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kSr:
    case Opcode::kSl:
    case Opcode::kComp: {
      major(0, 0);
      const int func = static_cast<int>(inst.op);  // 0..11 by enum order
      put_level(w, 6, func / 9);
      put_level(w, 5, (func % 9) / 3);
      put_level(w, 4, func % 3);
      put_ureg(w, 2, inst.ta);
      put_ureg(w, 0, inst.tb);
      break;
    }
    case Opcode::kLui:
      major(0, 0);
      put_level(w, 6, 2);
      put_ureg(w, 4, inst.ta);
      put_simm(w, 0, 4, inst.imm);
      break;
    case Opcode::kAndi:
    case Opcode::kAddi:
    case Opcode::kSri:
    case Opcode::kSli: {
      major(0, 1);
      int func = 0;
      switch (inst.op) {
        case Opcode::kAndi: func = kIshortAndi; break;
        case Opcode::kAddi: func = kIshortAddi; break;
        case Opcode::kSri: func = kIshortSri; break;
        default: func = kIshortSli; break;
      }
      put_level(w, 6, func / 3);
      put_level(w, 5, func % 3);
      put_ureg(w, 3, inst.ta);
      if (s.format == Format::kShiftImm) {
        put_level(w, 2, 1);  // zero pad trit
        put_ushift(w, 0, inst.imm);
      } else {
        put_simm(w, 0, 3, inst.imm);
      }
      break;
    }
    case Opcode::kLi:
      major(0, 2);
      put_ureg(w, 5, inst.ta);
      put_simm(w, 0, 5, inst.imm);
      break;
    case Opcode::kJal:
      major(1, 0);
      put_ureg(w, 5, inst.ta);
      put_simm(w, 0, 5, inst.imm);
      break;
    case Opcode::kJalr:
      major(1, 1);
      put_ureg(w, 5, inst.ta);
      put_ureg(w, 3, inst.tb);
      put_simm(w, 0, 3, inst.imm);
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
      if (inst.op == Opcode::kBeq) {
        major(1, 2);
      } else {
        major(2, 0);
      }
      put_ureg(w, 5, inst.tb);
      w.set(4, inst.bcond);
      put_simm(w, 0, 4, inst.imm);
      break;
    case Opcode::kLoad:
    case Opcode::kStore:
      if (inst.op == Opcode::kLoad) {
        major(2, 1);
      } else {
        major(2, 2);
      }
      put_ureg(w, 5, inst.ta);
      put_ureg(w, 3, inst.tb);
      put_simm(w, 0, 3, inst.imm);
      break;
  }
  return w;
}

Instruction decode(const Word9& w) {
  const int m8 = get_level(w, 8);
  const int m7 = get_level(w, 7);
  Instruction out;
  if (m8 == 0 && m7 == 0) {
    const int t6 = get_level(w, 6);
    if (t6 <= 1) {
      const int func = t6 * 9 + get_level(w, 5) * 3 + get_level(w, 4);
      if (func > 11) throw DecodeError("undefined R-type func " + std::to_string(func));
      out.op = static_cast<Opcode>(func);
      out.ta = get_ureg(w, 2);
      out.tb = get_ureg(w, 0);
      return out;
    }
    out.op = Opcode::kLui;
    out.ta = get_ureg(w, 4);
    out.imm = get_simm(w, 0, 4);
    return out;
  }
  if (m8 == 0 && m7 == 1) {
    const int func = get_level(w, 6) * 3 + get_level(w, 5);
    out.ta = get_ureg(w, 3);
    switch (func) {
      case kIshortAndi:
        out.op = Opcode::kAndi;
        out.imm = get_simm(w, 0, 3);
        return out;
      case kIshortAddi:
        out.op = Opcode::kAddi;
        out.imm = get_simm(w, 0, 3);
        return out;
      case kIshortSri:
      case kIshortSli:
        if (get_level(w, 2) != 1) {
          throw DecodeError("SRI/SLI pad trit must be zero");
        }
        out.op = func == kIshortSri ? Opcode::kSri : Opcode::kSli;
        out.imm = get_level(w, 1) * 3 + get_level(w, 0);
        return out;
      default:
        throw DecodeError("undefined I-short selector " + std::to_string(func));
    }
  }
  if (m8 == 0 && m7 == 2) {
    out.op = Opcode::kLi;
    out.ta = get_ureg(w, 5);
    out.imm = get_simm(w, 0, 5);
    return out;
  }
  if (m8 == 1 && m7 == 0) {
    out.op = Opcode::kJal;
    out.ta = get_ureg(w, 5);
    out.imm = get_simm(w, 0, 5);
    return out;
  }
  if (m8 == 1 && m7 == 1) {
    out.op = Opcode::kJalr;
    out.ta = get_ureg(w, 5);
    out.tb = get_ureg(w, 3);
    out.imm = get_simm(w, 0, 3);
    return out;
  }
  if ((m8 == 1 && m7 == 2) || (m8 == 2 && m7 == 0)) {
    out.op = (m8 == 1) ? Opcode::kBeq : Opcode::kBne;
    out.tb = get_ureg(w, 5);
    out.bcond = w[4];
    out.imm = get_simm(w, 0, 4);
    return out;
  }
  // (2,1) LOAD and (2,2) STORE.
  out.op = (m7 == 1) ? Opcode::kLoad : Opcode::kStore;
  out.ta = get_ureg(w, 5);
  out.tb = get_ureg(w, 3);
  out.imm = get_simm(w, 0, 3);
  return out;
}

std::optional<Instruction> try_decode(const Word9& w) noexcept {
  try {
    return decode(w);
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace art9::isa
