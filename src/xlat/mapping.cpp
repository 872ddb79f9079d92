#include "xlat/mapping.hpp"

#include <set>
#include <string>

namespace art9::xlat {

using isa::Instruction;
using isa::Opcode;
using rv32::Rv32Instruction;
using rv32::Rv32Op;
using ternary::kTritN;
using ternary::kTritP;
using ternary::kTritZ;
using ternary::Trit;
using ternary::Word9;

namespace {

constexpr int kImm3Max = 13;

class Mapper {
 public:
  Mapper(const rv32::Rv32Program& input, const RegisterMap& map) : in_(input), map_(map) {}

  MappingResult run() {
    collect_branch_targets();
    convert_data();
    // Prologue: initialise the zero register (T7 = 0).
    emit(Instruction{Opcode::kLui, kZeroReg, 0, kTritZ, 0});
    for (std::size_t i = 0; i < in_.code.size(); ++i) {
      const auto pc = static_cast<int64_t>(in_.entry) + static_cast<int64_t>(i) * 4;
      if (targets_.contains(pc)) pending_labels_.push_back(addr_label(pc));
      map_instruction(in_.code[i], pc);
    }
    flush_labels_to_halt();
    if (needs_mul_) emit_mul_routine();
    if (needs_div_) emit_divmod_routine();
    MappingResult result;
    result.program = std::move(out_);
    result.uses_mul_routine = needs_mul_;
    return result;
  }

 private:
  // --- label plumbing ----------------------------------------------------

  static std::string addr_label(int64_t byte_addr) {
    std::string label = std::to_string(byte_addr);
    label.insert(0, 1, 'A');
    return label;
  }

  void emit(Instruction inst, std::string target = {}) {
    XInst x(inst, std::move(target));
    x.labels = std::move(pending_labels_);
    pending_labels_.clear();
    out_.code.push_back(std::move(x));
  }

  /// If labels are pending at the very end (e.g. a branch to the end of the
  /// program), bind them to an appended HALT.
  void flush_labels_to_halt() {
    if (!pending_labels_.empty()) emit(Instruction::halt());
  }

  void collect_branch_targets() {
    for (std::size_t i = 0; i < in_.code.size(); ++i) {
      const Rv32Instruction& inst = in_.code[i];
      const rv32::Rv32Spec& s = rv32::spec(inst.op);
      if (s.format == rv32::Rv32Format::kB || s.format == rv32::Rv32Format::kJ) {
        targets_.insert(static_cast<int64_t>(in_.entry) + static_cast<int64_t>(i) * 4 + inst.imm);
      }
    }
  }

  void convert_data() {
    for (const rv32::Rv32DataWord& d : in_.data) {
      // Word A lands at balanced address A, so A itself must fit 9 trits.
      if (d.address > static_cast<uint32_t>(Word9::kMaxValue)) {
        throw TranslationError("data word address " + std::to_string(d.address) +
                               " exceeds the 9-trit range");
      }
      const auto value = static_cast<int32_t>(d.value);
      if (value < Word9::kMinValue || value > Word9::kMaxValue) {
        throw TranslationError("data word " + std::to_string(value) +
                               " exceeds the 9-trit range");
      }
      out_.data.push_back(isa::DataWord{static_cast<int64_t>(d.address), Word9::from_int(value)});
    }
  }

  // --- register plumbing --------------------------------------------------

  [[nodiscard]] const Location& loc(int rv_reg) const { return map_.location(rv_reg); }

  /// Register currently holding `rv_reg`'s value, loading spilled values
  /// into `scratch`.
  int read_val(int rv_reg, int scratch) {
    const Location& l = loc(rv_reg);
    switch (l.kind) {
      case Location::Kind::kZero:
      case Location::Kind::kReg:
      case Location::Kind::kLink:
        return l.reg;
      case Location::Kind::kSpill:
        emit(Instruction{Opcode::kLoad, scratch, kZeroReg, kTritZ, l.slot});
        return scratch;
    }
    return kScratch0;
  }

  /// Emits code placing `rv_reg`'s value into exactly register `t`.
  void copy_into(int t, int rv_reg) {
    const Location& l = loc(rv_reg);
    switch (l.kind) {
      case Location::Kind::kZero:
        emit(Instruction{Opcode::kLui, t, 0, kTritZ, 0});
        return;
      case Location::Kind::kReg:
      case Location::Kind::kLink:
        if (l.reg != t) emit(Instruction{Opcode::kMv, t, l.reg, kTritZ, 0});
        return;
      case Location::Kind::kSpill:
        emit(Instruction{Opcode::kLoad, t, kZeroReg, kTritZ, l.slot});
        return;
    }
  }

  /// Writes register `t` back to `rv_reg`'s home (drops writes to x0).
  void write_back(int rv_reg, int t) {
    const Location& l = loc(rv_reg);
    switch (l.kind) {
      case Location::Kind::kZero:
        return;
      case Location::Kind::kReg:
      case Location::Kind::kLink:
        if (l.reg != t) emit(Instruction{Opcode::kMv, l.reg, t, kTritZ, 0});
        return;
      case Location::Kind::kSpill:
        emit(Instruction{Opcode::kStore, t, kZeroReg, kTritZ, l.slot});
        return;
    }
  }

  /// LUI/LI pair materialising an arbitrary 9-trit constant into `t`
  /// (the operand-conversion step of Fig. 2).
  void emit_limm(int t, int64_t value) {
    if (value < Word9::kMinValue || value > Word9::kMaxValue) {
      throw TranslationError("immediate " + std::to_string(value) + " exceeds the 9-trit range");
    }
    const Word9 w = Word9::from_int(value);
    emit(Instruction{Opcode::kLui, t, 0, kTritZ, static_cast<int>(w.slice<4>(5).to_int())});
    emit(Instruction{Opcode::kLi, t, 0, kTritZ, static_cast<int>(w.slice<5>(0).to_int())});
  }

  // --- op helpers ----------------------------------------------------------

  /// rv32 three-address binary op -> ART-9 two-address form.
  void binary_op(Opcode op, int rd, int rs1, int rs2, bool commutative) {
    const Location& d = loc(rd);
    if (d.kind == Location::Kind::kZero) return;  // writes to x0 vanish
    if (d.kind == Location::Kind::kReg || d.kind == Location::Kind::kLink) {
      const bool rs1_in_place =
          loc(rs1).kind != Location::Kind::kSpill && loc(rs1).kind != Location::Kind::kZero &&
          loc(rs1).reg == d.reg;
      const bool rs2_in_place =
          loc(rs2).kind != Location::Kind::kSpill && loc(rs2).kind != Location::Kind::kZero &&
          loc(rs2).reg == d.reg;
      if (rs1_in_place) {
        const int b = read_val(rs2, kScratch1);
        emit(Instruction{op, d.reg, b, kTritZ, 0});
        return;
      }
      if (commutative && rs2_in_place) {
        const int a = read_val(rs1, kScratch1);
        emit(Instruction{op, d.reg, a, kTritZ, 0});
        return;
      }
      if (!rs2_in_place) {
        copy_into(d.reg, rs1);
        const int b = read_val(rs2, kScratch1);
        emit(Instruction{op, d.reg, b, kTritZ, 0});
        return;
      }
      // Non-commutative with rd aliasing rs2: go through scratch.
    }
    copy_into(kScratch0, rs1);
    const int b = read_val(rs2, kScratch1);
    emit(Instruction{op, kScratch0, b, kTritZ, 0});
    write_back(rd, kScratch0);
  }

  /// rv32 `xor` under the boolean contract: rd = |rs1 - rs2|.
  void xor_op(int rd, int rs1, int rs2) {
    if (loc(rd).kind == Location::Kind::kZero) return;
    copy_into(kScratch0, rs1);
    const int b = read_val(rs2, kScratch1);
    emit(Instruction{Opcode::kSub, kScratch0, b, kTritZ, 0});
    emit(Instruction{Opcode::kMv, kScratch1, kScratch0, kTritZ, 0});
    emit(Instruction{Opcode::kSti, kScratch1, kScratch1, kTritZ, 0});
    emit(Instruction{Opcode::kOr, kScratch0, kScratch1, kTritZ, 0});
    write_back(rd, kScratch0);
  }

  /// rv32 slt/slti family: rd = (a < b) ? 1 : 0.
  /// COMP leaves sign(a-b) as the whole word value (-1/0/+1); the result
  /// is max(-x, 0): STI negates tritwise and OR with the zero register
  /// clamps, mapping -1 -> 1 and {0,+1} -> 0.
  void set_less_than(int rd, int rs1, int b_reg) {
    copy_into(kScratch0, rs1);
    emit(Instruction{Opcode::kComp, kScratch0, b_reg, kTritZ, 0});
    emit(Instruction{Opcode::kSti, kScratch0, kScratch0, kTritZ, 0});
    emit(Instruction{Opcode::kOr, kScratch0, kZeroReg, kTritZ, 0});
    write_back(rd, kScratch0);
  }

  /// Conditional branches: copy rs1, COMP against rs2, then test the
  /// result's least-significant trit.
  void branch(const Rv32Instruction& inst, int64_t pc) {
    copy_into(kScratch0, inst.rs1);
    const int b = read_val(inst.rs2, kScratch1);
    emit(Instruction{Opcode::kComp, kScratch0, b, kTritZ, 0});
    const std::string label = addr_label(pc + inst.imm);
    switch (inst.op) {
      case Rv32Op::kBeq:
        emit(Instruction{Opcode::kBeq, 0, kScratch0, kTritZ, 0}, label);
        break;
      case Rv32Op::kBne:
        emit(Instruction{Opcode::kBne, 0, kScratch0, kTritZ, 0}, label);
        break;
      case Rv32Op::kBlt:
      case Rv32Op::kBltu:
        emit(Instruction{Opcode::kBeq, 0, kScratch0, kTritN, 0}, label);
        break;
      case Rv32Op::kBge:
      case Rv32Op::kBgeu:
        emit(Instruction{Opcode::kBne, 0, kScratch0, kTritN, 0}, label);
        break;
      default:
        throw TranslationError("not a branch");
    }
  }

  /// lw/sw address operand: returns {base register, literal offset}.
  struct Mem {
    int base;
    int offset;
  };
  Mem mem_address(int rs1, int32_t offset, int scratch) {
    int base = read_val(rs1, scratch);
    if (offset >= -kImm3Max && offset <= kImm3Max) return {base, offset};
    // Wide offset: materialise base+offset in the scratch register.
    if (base != scratch) {
      emit_limm(scratch, offset);
      emit(Instruction{Opcode::kAdd, scratch, base, kTritZ, 0});
    } else {
      // Base already occupies the scratch (spilled): add the offset via
      // the other scratch.
      const int other = scratch == kScratch0 ? kScratch1 : kScratch0;
      emit_limm(other, offset);
      emit(Instruction{Opcode::kAdd, scratch, other, kTritZ, 0});
    }
    return {scratch, 0};
  }

  /// The __mul call protocol.  Arguments travel through the runtime TDM
  /// slots (not the scratch registers): both scratches must be *dead* at
  /// the JAL so that long-branch relaxation may rewrite it into a
  /// LUI/LI/JALR island using T0 (see emit.hpp).
  void mul_op(int rd, int rs1, int rs2) {
    needs_mul_ = true;
    emit(Instruction{Opcode::kStore, kLinkReg, kZeroReg, kTritZ, kRaSaveSlot});
    store_to_slot(rs1, kRuntimeSlot0);
    store_to_slot(rs2, kRuntimeSlot1);
    emit(Instruction{Opcode::kJal, kLinkReg, 0, kTritZ, 0}, "__mul");
    emit(Instruction{Opcode::kLoad, kLinkReg, kZeroReg, kTritZ, kRaSaveSlot});
    write_back(rd, kScratch0);
  }

  /// Copies rv32 register `rv_reg`'s value into runtime slot `slot`.
  void store_to_slot(int rv_reg, int slot) {
    const int src = read_val(rv_reg, kScratch0);
    emit(Instruction{Opcode::kStore, src, kZeroReg, kTritZ, slot});
  }

  /// The __divmod call protocol: same memory-argument convention as
  /// __mul; quotient returns in T0, remainder in runtime slot 1.
  void div_op(int rd, int rs1, int rs2, bool want_remainder) {
    needs_div_ = true;
    emit(Instruction{Opcode::kStore, kLinkReg, kZeroReg, kTritZ, kRaSaveSlot});
    store_to_slot(rs1, kRuntimeSlot0);
    store_to_slot(rs2, kRuntimeSlot1);
    emit(Instruction{Opcode::kJal, kLinkReg, 0, kTritZ, 0}, "__divmod");
    emit(Instruction{Opcode::kLoad, kLinkReg, kZeroReg, kTritZ, kRaSaveSlot});
    if (want_remainder) {
      emit(Instruction{Opcode::kLoad, kScratch0, kZeroReg, kTritZ, kRuntimeSlot1});
    }
    write_back(rd, kScratch0);
  }

  /// Trit-serial restoring division: quotient = arg0 / arg1 (truncating
  /// toward zero), remainder takes the dividend's sign; division by zero
  /// returns quotient -1 and remainder = dividend (the RISC-V M
  /// convention — the 9-trit range is symmetric, so there is no INT_MIN
  /// overflow case).  Schoolbook digit recurrence over the dividend's
  /// trits (MST first): r = 3r + digit, then subtract the divisor up to
  /// twice; a divisor magnitude above (3^9-1)/6 would overflow the
  /// 3r+digit step, so such divisors take a direct-subtraction path
  /// (their quotient magnitude is at most 2).
  void emit_divmod_routine() {
    const int t2 = kFirstAssignable;      // q
    const int t3 = kFirstAssignable + 1;  // d (divisor magnitude)
    const int t4 = kFirstAssignable + 2;  // per-step scratch
    auto ins = [&](Opcode op, int ta, int tb, int imm = 0) {
      emit(Instruction{op, ta, tb, kTritZ, imm});
    };
    auto br = [&](Opcode op, int tb, Trit cond, const std::string& label) {
      emit(Instruction{op, 0, tb, cond, 0}, label);
    };
    auto bind = [&](const std::string& label) { pending_labels_.push_back(label); };

    bind("__divmod");
    ins(Opcode::kStore, t2, kZeroReg, kRuntimeSlot2);
    ins(Opcode::kStore, t3, kZeroReg, kRuntimeSlot3);
    ins(Opcode::kStore, t4, kZeroReg, kRuntimeSlot4);
    ins(Opcode::kLoad, kScratch0, kZeroReg, kRuntimeSlot0);  // a
    ins(Opcode::kLoad, kScratch1, kZeroReg, kRuntimeSlot1);  // b
    // b == 0: q = -1, r = a.
    ins(Opcode::kMv, t4, kScratch1);
    ins(Opcode::kComp, t4, kZeroReg);
    br(Opcode::kBne, t4, kTritZ, "__divmod.nz");
    ins(Opcode::kLui, t2, 0);
    ins(Opcode::kAddi, t2, 0, -1);
    ins(Opcode::kMv, kScratch1, kScratch0);  // r = a (signed)
    emit(Instruction{Opcode::kJal, t4, 0, kTritZ, 0}, "__divmod.out");
    // Signs and magnitudes.
    bind("__divmod.nz");
    ins(Opcode::kMv, t2, kScratch0);
    ins(Opcode::kComp, t2, kZeroReg);  // t2 = sign(a)
    br(Opcode::kBne, t2, kTritN, "__divmod.apos");
    ins(Opcode::kSti, kScratch0, kScratch0);
    bind("__divmod.apos");
    ins(Opcode::kMv, t4, kScratch1);
    ins(Opcode::kComp, t4, kZeroReg);  // t4 = sign(b)
    br(Opcode::kBne, t4, kTritN, "__divmod.bpos");
    ins(Opcode::kSti, kScratch1, kScratch1);
    bind("__divmod.bpos");
    // Pack 3*qsign + sign(a) into runtime slot 0 (arguments are consumed).
    ins(Opcode::kXor, t4, t2);       // xor(sb, sa) = -(sa*sb)
    ins(Opcode::kSti, t4, t4);       // qsign
    ins(Opcode::kSli, t4, 0, 1);
    ins(Opcode::kAdd, t4, t2);
    ins(Opcode::kStore, t4, kZeroReg, kRuntimeSlot0);
    // |b| > |a|: quotient 0, remainder |a| (signed by the epilogue).
    ins(Opcode::kMv, t4, kScratch1);
    ins(Opcode::kComp, t4, kScratch0);
    br(Opcode::kBne, t4, kTritP, "__divmod.fits");
    ins(Opcode::kMv, kScratch1, kScratch0);  // r = |a|
    ins(Opcode::kLui, t2, 0);                // q = 0
    emit(Instruction{Opcode::kJal, t4, 0, kTritZ, 0}, "__divmod.signs");
    bind("__divmod.fits");
    // Huge divisor (|b| > 3280 = (3^9-1)/6): at most two subtractions.
    ins(Opcode::kMv, t4, kScratch1);
    ins(Opcode::kLui, t2, 0, 13);   // 3280 = 13*243 + 121
    ins(Opcode::kLi, t2, 0, 121);
    ins(Opcode::kComp, t4, t2);
    br(Opcode::kBne, t4, kTritP, "__divmod.school");
    ins(Opcode::kMv, t3, kScratch1);         // d = |b|
    ins(Opcode::kMv, kScratch1, kScratch0);  // r = |a|
    ins(Opcode::kLui, t2, 0);                // q = 0
    for (int step = 0; step < 2; ++step) {
      ins(Opcode::kMv, t4, kScratch1);
      ins(Opcode::kComp, t4, t3);
      br(Opcode::kBeq, t4, kTritN, "__divmod.signs");
      ins(Opcode::kSub, kScratch1, t3);
      ins(Opcode::kAddi, t2, 0, 1);
    }
    emit(Instruction{Opcode::kJal, t4, 0, kTritZ, 0}, "__divmod.signs");
    // Schoolbook digit loop: 9 iterations, counter in runtime slot 1.
    bind("__divmod.school");
    ins(Opcode::kMv, t3, kScratch1);  // d
    ins(Opcode::kLui, kScratch1, 0);  // r = 0
    ins(Opcode::kLui, t2, 0);         // q = 0
    ins(Opcode::kLui, t4, 0);
    ins(Opcode::kAddi, t4, 0, 9);
    ins(Opcode::kStore, t4, kZeroReg, kRuntimeSlot1);
    bind("__divmod.loop");
    ins(Opcode::kMv, t4, kScratch0);
    ins(Opcode::kSri, t4, 0, 8);        // next dividend digit (MST)
    ins(Opcode::kSli, kScratch0, 0, 1);
    ins(Opcode::kSli, kScratch1, 0, 1);
    ins(Opcode::kAdd, kScratch1, t4);   // r = 3r + digit
    ins(Opcode::kSli, t2, 0, 1);        // q *= 3
    // A -1 digit can pull r to -1: add the divisor back once (q -= 1).
    ins(Opcode::kMv, t4, kScratch1);
    ins(Opcode::kComp, t4, kZeroReg);
    br(Opcode::kBne, t4, kTritN, "__divmod.nofix");
    ins(Opcode::kAdd, kScratch1, t3);
    ins(Opcode::kAddi, t2, 0, -1);
    bind("__divmod.nofix");
    for (int step = 0; step < 2; ++step) {
      ins(Opcode::kMv, t4, kScratch1);
      ins(Opcode::kComp, t4, t3);
      br(Opcode::kBeq, t4, kTritN, "__divmod.next");
      ins(Opcode::kSub, kScratch1, t3);
      ins(Opcode::kAddi, t2, 0, 1);
    }
    bind("__divmod.next");
    ins(Opcode::kLoad, t4, kZeroReg, kRuntimeSlot1);
    ins(Opcode::kAddi, t4, 0, -1);
    ins(Opcode::kStore, t4, kZeroReg, kRuntimeSlot1);
    ins(Opcode::kComp, t4, kZeroReg);
    br(Opcode::kBne, t4, kTritZ, "__divmod.loop");
    // Apply the signs (remainder follows the dividend, quotient the pair).
    bind("__divmod.signs");
    ins(Opcode::kLoad, t4, kZeroReg, kRuntimeSlot0);
    br(Opcode::kBne, t4, kTritN, "__divmod.rpos");
    ins(Opcode::kSti, kScratch1, kScratch1);
    bind("__divmod.rpos");
    ins(Opcode::kLoad, t4, kZeroReg, kRuntimeSlot0);
    ins(Opcode::kSri, t4, 0, 1);
    br(Opcode::kBne, t4, kTritN, "__divmod.qpos");
    ins(Opcode::kSti, t2, t2);
    bind("__divmod.qpos");
    bind("__divmod.out");
    ins(Opcode::kMv, kScratch0, t2);                      // quotient -> T0
    ins(Opcode::kStore, kScratch1, kZeroReg, kRuntimeSlot1);  // remainder -> slot
    ins(Opcode::kLoad, t2, kZeroReg, kRuntimeSlot2);
    ins(Opcode::kLoad, t3, kZeroReg, kRuntimeSlot3);
    ins(Opcode::kLoad, t4, kZeroReg, kRuntimeSlot4);
    ins(Opcode::kJalr, kScratch1, kLinkReg, 0);
  }

  /// Trit-serial multiplication: result = arg0 * arg1 (slots -11/-12),
  /// returned in T0.  LST-first loop: acc += a * trit0(b); a *= 3;
  /// b >>= 1; exits as soon as the remaining multiplier is zero, so the
  /// cost is proportional to the multiplier's trit length.  T2/T3 are
  /// saved and restored; all internal branches are short by construction
  /// (the backward jump links into the dead T3, so relaxation never
  /// rewrites anything inside the routine).
  void emit_mul_routine() {
    const int acc = kFirstAssignable;       // T2
    const int tmp = kFirstAssignable + 1;   // T3
    pending_labels_.push_back("__mul");
    emit(Instruction{Opcode::kStore, acc, kZeroReg, kTritZ, kRuntimeSlot2});
    emit(Instruction{Opcode::kLoad, kScratch0, kZeroReg, kTritZ, kRuntimeSlot0});  // a
    emit(Instruction{Opcode::kLoad, kScratch1, kZeroReg, kTritZ, kRuntimeSlot1});  // b
    emit(Instruction{Opcode::kStore, tmp, kZeroReg, kTritZ, kRuntimeSlot1});  // slot now free
    emit(Instruction{Opcode::kLui, acc, 0, kTritZ, 0});  // acc = 0
    pending_labels_.push_back("__mul.loop");
    emit(Instruction{Opcode::kMv, tmp, kScratch1, kTritZ, 0});
    emit(Instruction{Opcode::kComp, tmp, kZeroReg, kTritZ, 0});
    emit(Instruction{Opcode::kBeq, 0, tmp, kTritZ, 0}, "__mul.done");
    emit(Instruction{Opcode::kBne, 0, kScratch1, kTritP, 0}, "__mul.sa");
    emit(Instruction{Opcode::kAdd, acc, kScratch0, kTritZ, 0});
    pending_labels_.push_back("__mul.sa");
    emit(Instruction{Opcode::kBne, 0, kScratch1, kTritN, 0}, "__mul.ss");
    emit(Instruction{Opcode::kSub, acc, kScratch0, kTritZ, 0});
    pending_labels_.push_back("__mul.ss");
    emit(Instruction{Opcode::kSri, kScratch1, 0, kTritZ, 1});
    emit(Instruction{Opcode::kSli, kScratch0, 0, kTritZ, 1});
    emit(Instruction{Opcode::kJal, tmp, 0, kTritZ, 0}, "__mul.loop");
    pending_labels_.push_back("__mul.done");
    emit(Instruction{Opcode::kMv, kScratch0, acc, kTritZ, 0});
    emit(Instruction{Opcode::kLoad, acc, kZeroReg, kTritZ, kRuntimeSlot2});
    emit(Instruction{Opcode::kLoad, tmp, kZeroReg, kTritZ, kRuntimeSlot1});
    emit(Instruction{Opcode::kJalr, kScratch1, kLinkReg, kTritZ, 0});
  }

  // --- the mapping table ----------------------------------------------------

  void map_instruction(const Rv32Instruction& inst, int64_t pc) {
    const rv32::Rv32Spec& s = rv32::spec(inst.op);
    switch (inst.op) {
      case Rv32Op::kAdd:
        binary_op(Opcode::kAdd, inst.rd, inst.rs1, inst.rs2, true);
        return;
      case Rv32Op::kSub:
        if (inst.rs1 == 0) {  // neg: a single STI
          if (loc(inst.rd).kind == Location::Kind::kZero) return;
          const int b = read_val(inst.rs2, kScratch0);
          const Location& d = loc(inst.rd);
          const int t = (d.kind == Location::Kind::kReg || d.kind == Location::Kind::kLink)
                            ? d.reg
                            : kScratch0;
          emit(Instruction{Opcode::kSti, t, b, kTritZ, 0});
          if (t == kScratch0) write_back(inst.rd, kScratch0);
          return;
        }
        binary_op(Opcode::kSub, inst.rd, inst.rs1, inst.rs2, false);
        return;
      case Rv32Op::kAnd:
        binary_op(Opcode::kAnd, inst.rd, inst.rs1, inst.rs2, true);
        return;
      case Rv32Op::kOr:
        binary_op(Opcode::kOr, inst.rd, inst.rs1, inst.rs2, true);
        return;
      case Rv32Op::kXor:
        xor_op(inst.rd, inst.rs1, inst.rs2);
        return;
      case Rv32Op::kSlt:
      case Rv32Op::kSltu: {
        if (loc(inst.rd).kind == Location::Kind::kZero) return;
        const int b = read_val(inst.rs2, kScratch1);
        set_less_than(inst.rd, inst.rs1, b);
        return;
      }
      case Rv32Op::kSlti:
      case Rv32Op::kSltiu: {
        if (loc(inst.rd).kind == Location::Kind::kZero) return;
        emit_limm(kScratch1, inst.imm);
        set_less_than(inst.rd, inst.rs1, kScratch1);
        return;
      }
      case Rv32Op::kAddi: {
        const Location& d = loc(inst.rd);
        if (d.kind == Location::Kind::kZero) return;
        if (inst.rs1 == 0) {  // li
          if (d.kind == Location::Kind::kReg || d.kind == Location::Kind::kLink) {
            emit_limm(d.reg, inst.imm);
          } else {
            emit_limm(kScratch0, inst.imm);
            write_back(inst.rd, kScratch0);
          }
          return;
        }
        const bool small = inst.imm >= -kImm3Max && inst.imm <= kImm3Max;
        if (d.kind == Location::Kind::kReg || d.kind == Location::Kind::kLink) {
          copy_into(d.reg, inst.rs1);
          if (inst.imm == 0) return;
          if (small) {
            emit(Instruction{Opcode::kAddi, d.reg, 0, kTritZ, inst.imm});
          } else {
            emit_limm(kScratch1, inst.imm);
            emit(Instruction{Opcode::kAdd, d.reg, kScratch1, kTritZ, 0});
          }
          return;
        }
        copy_into(kScratch0, inst.rs1);
        if (inst.imm != 0) {
          if (small) {
            emit(Instruction{Opcode::kAddi, kScratch0, 0, kTritZ, inst.imm});
          } else {
            emit_limm(kScratch1, inst.imm);
            emit(Instruction{Opcode::kAdd, kScratch0, kScratch1, kTritZ, 0});
          }
        }
        write_back(inst.rd, kScratch0);
        return;
      }
      case Rv32Op::kAndi:
      case Rv32Op::kOri:
      case Rv32Op::kXori: {
        // Boolean contract: only 0/1 immediates are meaningful in ternary.
        if (inst.imm != 0 && inst.imm != 1) {
          throw TranslationError(std::string(s.mnemonic) +
                                 " with non-boolean mask has no ternary counterpart");
        }
        if (loc(inst.rd).kind == Location::Kind::kZero) return;
        emit_limm(kScratch1, inst.imm);
        copy_into(kScratch0, inst.rs1);
        if (inst.op == Rv32Op::kAndi) {
          emit(Instruction{Opcode::kAnd, kScratch0, kScratch1, kTritZ, 0});
        } else if (inst.op == Rv32Op::kOri) {
          emit(Instruction{Opcode::kOr, kScratch0, kScratch1, kTritZ, 0});
        } else {
          emit(Instruction{Opcode::kSub, kScratch0, kScratch1, kTritZ, 0});
          emit(Instruction{Opcode::kMv, kScratch1, kScratch0, kTritZ, 0});
          emit(Instruction{Opcode::kSti, kScratch1, kScratch1, kTritZ, 0});
          emit(Instruction{Opcode::kOr, kScratch0, kScratch1, kTritZ, 0});
        }
        write_back(inst.rd, kScratch0);
        return;
      }
      case Rv32Op::kSlli: {
        // Strength reduction: x << k  ==  x doubled k times.
        const Location& d = loc(inst.rd);
        if (d.kind == Location::Kind::kZero) return;
        const int t = (d.kind == Location::Kind::kReg || d.kind == Location::Kind::kLink)
                          ? d.reg
                          : kScratch0;
        copy_into(t, inst.rs1);
        for (int k = 0; k < inst.imm; ++k) emit(Instruction{Opcode::kAdd, t, t, kTritZ, 0});
        if (t == kScratch0) write_back(inst.rd, kScratch0);
        return;
      }
      case Rv32Op::kLui: {
        const int64_t value = static_cast<int64_t>(inst.imm) << 12;
        const Location& d = loc(inst.rd);
        if (d.kind == Location::Kind::kZero) return;
        if (d.kind == Location::Kind::kReg || d.kind == Location::Kind::kLink) {
          emit_limm(d.reg, value);
        } else {
          emit_limm(kScratch0, value);
          write_back(inst.rd, kScratch0);
        }
        return;
      }
      case Rv32Op::kBeq:
      case Rv32Op::kBne:
      case Rv32Op::kBlt:
      case Rv32Op::kBge:
      case Rv32Op::kBltu:
      case Rv32Op::kBgeu:
        branch(inst, pc);
        return;
      case Rv32Op::kJal: {
        const std::string label = addr_label(pc + inst.imm);
        const Location& d = loc(inst.rd);
        int link = kScratch0;
        if (d.kind == Location::Kind::kReg || d.kind == Location::Kind::kLink) link = d.reg;
        emit(Instruction{Opcode::kJal, link, 0, kTritZ, 0}, label);
        if (d.kind == Location::Kind::kSpill) write_back(inst.rd, kScratch0);
        return;
      }
      case Rv32Op::kJalr: {
        if (inst.imm < -kImm3Max || inst.imm > kImm3Max) {
          throw TranslationError("jalr offset exceeds the 3-trit immediate");
        }
        const int base = read_val(inst.rs1, kScratch1);
        const Location& d = loc(inst.rd);
        int link = kScratch0;
        if (d.kind == Location::Kind::kReg || d.kind == Location::Kind::kLink) link = d.reg;
        emit(Instruction{Opcode::kJalr, link, base, kTritZ, inst.imm});
        if (d.kind == Location::Kind::kSpill) write_back(inst.rd, kScratch0);
        return;
      }
      case Rv32Op::kLw: {
        const Location& d = loc(inst.rd);
        if (d.kind == Location::Kind::kZero) return;
        const Mem m = mem_address(inst.rs1, inst.imm, kScratch1);
        const int t = (d.kind == Location::Kind::kReg || d.kind == Location::Kind::kLink)
                          ? d.reg
                          : kScratch0;
        emit(Instruction{Opcode::kLoad, t, m.base, kTritZ, m.offset});
        if (t == kScratch0) write_back(inst.rd, kScratch0);
        return;
      }
      case Rv32Op::kSw: {
        const Mem m = mem_address(inst.rs1, inst.imm, kScratch1);
        const int v = read_val(inst.rs2, kScratch0);
        emit(Instruction{Opcode::kStore, v, m.base, kTritZ, m.offset});
        return;
      }
      case Rv32Op::kMul:
        if (loc(inst.rd).kind == Location::Kind::kZero) return;
        mul_op(inst.rd, inst.rs1, inst.rs2);
        return;
      case Rv32Op::kDiv:
      case Rv32Op::kDivu:
        if (loc(inst.rd).kind == Location::Kind::kZero) return;
        div_op(inst.rd, inst.rs1, inst.rs2, /*want_remainder=*/false);
        return;
      case Rv32Op::kRem:
      case Rv32Op::kRemu:
        if (loc(inst.rd).kind == Location::Kind::kZero) return;
        div_op(inst.rd, inst.rs1, inst.rs2, /*want_remainder=*/true);
        return;
      case Rv32Op::kFence:
        return;  // single-core: no-op
      case Rv32Op::kEcall:
      case Rv32Op::kEbreak:
        emit(Instruction::halt());
        return;
      default:
        throw TranslationError("rv32 '" + std::string(s.mnemonic) +
                               "' has no ternary mapping (outside the framework contract)");
    }
  }

  const rv32::Rv32Program& in_;
  const RegisterMap& map_;
  XProgram out_;
  std::set<int64_t> targets_;
  std::vector<std::string> pending_labels_;
  bool needs_mul_ = false;
  bool needs_div_ = false;
};

}  // namespace

MappingResult map_program(const rv32::Rv32Program& input, const RegisterMap& map) {
  Mapper mapper(input, map);
  return mapper.run();
}

}  // namespace art9::xlat
