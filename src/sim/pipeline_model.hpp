// The cycle-accurate 5-stage pipeline model (paper Fig. 4), factored into
// control logic and datapath.
//
// PipelineModel<Datapath> owns everything that decides *when* things
// happen: the IF/ID/EX/MEM/WB latch advance, the hazard detection unit,
// the forwarding mux selects, branch resolution, squash/stall accounting,
// tracing and the retire hook.  The Datapath policy owns *what* flows
// through the latches: the word type, the register file and data memory,
// and the TALU/address/link/condition evaluations.
//
// Two datapaths instantiate the model:
//  * ReferencePipelineDatapath (pipeline.hpp) — ternary::Word9 payloads
//    over the reference RegFile/TernaryMemory; the golden cycle-accurate
//    model;
//  * PackedPipelineDatapath (packed_pipeline.hpp) — plane-packed
//    ternary::BctWord9 payloads over a packed TRF and PackedMemory, every
//    EX evaluation a handful of branchless plane/table operations.
//
// Because the control logic is shared *by construction*, both
// instantiations produce bit-identical cycle, stall, squash and
// prediction counts, identical CycleTrace streams and identical retired-
// instruction observer streams on every PipelineConfig combination —
// locked by tests/sim/packed_pipeline_test.cpp and trace_golden_test.cpp.
//
// Latches carry `const PackedOp*` into the immutable DecodedImage's rows
// rather than Instruction copies, so stage advance is pointer moves,
// static control-flow targets come precomputed (taken_pc/next_pc), and
// each datapath reads the row's operand word in its own encoding — no
// immediate re-encoding per cycle on either datapath.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "isa/program.hpp"
#include "sim/decoded_image.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"

namespace art9::sim {

struct PipelineConfig {
  /// EX/MEM + MEM/WB -> TALU operand bypass.  Off: RAW hazards stall in ID.
  bool ex_forwarding = true;
  /// One-trit condition bypass (EX combinational + EX/MEM + MEM/WB) into
  /// the ID condition checker, and 9-trit EX/MEM + MEM/WB bypass for the
  /// JALR base.  Off: branches/JALR stall until the producer retires.
  bool id_forwarding = true;
  /// TRF write in WB is visible to ID reads in the same cycle
  /// (read-during-write bypass inside the register file).  Off: the HDU
  /// must also interlock distance-3 RAW hazards for one cycle (the write
  /// lands at the clock edge, after the ID read).
  bool regfile_write_through = true;
  /// Resolve branches in ID (paper's design, 1 taken-branch bubble).
  /// Off: resolve in EX (2 bubbles) — the ablation baseline.
  bool branch_in_id = true;
  /// Extension (not in the paper): static prediction in IF — backward
  /// conditional branches predict taken and JAL targets are folded into
  /// the fetch, removing the bubble when the prediction holds.  Requires
  /// branch_in_id (ignored otherwise).
  bool static_prediction = false;
  /// Cycle budget for run().
  uint64_t max_cycles = 50'000'000;
};

namespace detail {

template <class Datapath>
class PipelineModel {
 public:
  using Word = typename Datapath::Word;

  /// Runs off a shared pre-decoded image.  `image` must be non-null.
  explicit PipelineModel(std::shared_ptr<const DecodedImage> image, PipelineConfig config)
      : config_(config), image_(std::move(image)), dp_(*image_) {}

  /// Advances one clock cycle.  Returns false on the cycle the HALT
  /// instruction retires (that cycle is included in the statistics).
  bool step();

  /// Runs to halt or the cycle budget (config.max_cycles).
  SimStats run() { return run(config_.max_cycles); }

  /// Runs to halt or until `stats().cycles` reaches `max_cycles`,
  /// overriding config.max_cycles — the Engine facade's budget seam.
  SimStats run(uint64_t max_cycles) {
    while (stats_.cycles < max_cycles) {
      if (!step()) return stats_;
    }
    stats_.halt = HaltReason::kMaxCycles;
    return stats_;
  }

  [[nodiscard]] const SimStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const PipelineConfig& config() const noexcept { return config_; }

  /// The pre-decoded image this simulator executes.
  [[nodiscard]] const DecodedImage& image() const noexcept { return *image_; }

  /// The datapath policy instance (register file, memory, PC).
  [[nodiscard]] Datapath& datapath() noexcept { return dp_; }
  [[nodiscard]] const Datapath& datapath() const noexcept { return dp_; }

  /// Architectural checkpoint at an instruction boundary: drains the
  /// in-flight instructions (the not-yet-issued IF/ID entry is squashed,
  /// older stages complete — a few extra cycles accrue to stats()), then
  /// returns the architectural state with `pc` on the next unexecuted
  /// instruction.  The pipeline itself is left restarted at that same
  /// boundary, so checkpoint() is observable only in the cycle counters:
  /// the retired-instruction stream and final architectural state of a
  /// checkpointed run match the uninterrupted run exactly.
  [[nodiscard]] ArchState checkpoint() {
    const int64_t resume_pc = drain_to_boundary();
    ArchState snapshot = dp_.arch_state();
    snapshot.pc = resume_pc;
    restore_state(snapshot);
    return snapshot;
  }

  /// Adopts `state` as the architectural state and restarts the pipeline
  /// empty at state.pc (the snapshot-restore seam: `state` may come from
  /// any other engine kind's checkpoint).
  void restore_state(const ArchState& state) {
    dp_.load_state(state);
    ifid_ = IfId{};
    idex_ = IdEx{};
    exmem_ = ExMem{};
    memwb_ = MemWb{};
    fetch_stopped_ = false;
    halted_ = false;
  }

  /// Streams a CycleTrace per clock to `observer` (pass nullptr to stop).
  void set_tracer(TraceObserver observer) { tracer_ = std::move(observer); }

  /// Fires once per retired instruction in WB (the HALT pseudo-op never
  /// retires), with the 0-based retirement index.  One branch per cycle
  /// when unset; the sim::Engine facade adapts this to its Observer.
  using RetireObserver = std::function<void(const isa::Instruction&, int64_t pc, uint64_t index)>;
  void set_retire_observer(RetireObserver observer) { retire_observer_ = std::move(observer); }

 private:
  struct IfId {
    bool valid = false;
    bool poisoned = false;  // fetched from uninitialised TIM (wrong path)
    bool predicted_taken = false;  // static prediction applied at fetch
    const PackedOp* op = nullptr;
  };
  struct IdEx {
    bool valid = false;
    bool is_halt = false;  // recognised halt convention; performs no writes
    // Writes a TRF register on retire, decoded in ID like a RegWrite
    // signal.  kHalt never does; a *dynamic* JALR halt still counts for
    // hazards and forwarding, as the HDU sees only the opcode fields.
    bool writes = false;
    const PackedOp* op = nullptr;
    Word a{};  // TRF[Ta] as read in ID
    Word b{};  // TRF[Tb] as read in ID
  };
  struct ExMem {
    bool valid = false;
    bool is_halt = false;
    bool writes = false;
    const PackedOp* op = nullptr;
    Word result{};     // ALU result / link value / memory address
    Word store_val{};  // STORE data
  };
  struct MemWb {
    bool valid = false;
    bool is_halt = false;
    bool writes = false;
    const PackedOp* op = nullptr;
    Word result{};  // value for the TRF write port
  };

  [[nodiscard]] static int64_t pc_of(const PackedOp* op) { return op ? op->pc : 0; }
  /// The source instruction of a latched row (traces, the retire hook).
  [[nodiscard]] const isa::Instruction& inst_of(const PackedOp* op) const {
    static const isa::Instruction kEmpty{};
    return op ? image_->instruction(DecodedImage::row_of(op->pc)) : kEmpty;
  }

  /// checkpoint()'s drain: squashes the unissued IF/ID entry, stops
  /// fetch, and clocks until EX/MEM/WB are empty (at most three cycles —
  /// ID is empty, so no stall can hold an older stage).  Returns the PC
  /// the drained machine resumes from: the squashed entry's own PC, the
  /// target of a control-flow redirect an in-flight op resolves while
  /// draining (branch-in-EX mode), or — if the HALT retires during the
  /// drain, or already has — the halt instruction's PC, matching the
  /// functional kinds' convention of resting ON the halt.
  [[nodiscard]] int64_t drain_to_boundary() {
    if (halted_) return halt_pc_;
    int64_t resume_pc = ifid_.valid ? ifid_.op->pc : dp_.pc();
    ifid_ = IfId{};
    fetch_stopped_ = true;
    while (idex_.valid || exmem_.valid || memwb_.valid) {
      const uint64_t flushes_before = stats_.flush_taken_branch;
      if (!step()) return halt_pc_;
      if (stats_.flush_taken_branch != flushes_before) resume_pc = dp_.pc();
    }
    return resume_pc;
  }

  PipelineConfig config_;
  SimStats stats_;

  std::shared_ptr<const DecodedImage> image_;
  Datapath dp_;

  IfId ifid_;
  IdEx idex_;
  ExMem exmem_;
  MemWb memwb_;

  bool fetch_stopped_ = false;
  bool halted_ = false;   // the HALT retired; halt_pc_ is its address
  int64_t halt_pc_ = 0;   // (dp_.pc() stops past it — checkpoint needs the op's own PC)
  TraceObserver tracer_;
  RetireObserver retire_observer_;
};

template <class Datapath>
bool PipelineModel<Datapath>::step() {
  ++stats_.cycles;

  CycleTrace trace;
  if (tracer_) {
    trace.cycle = stats_.cycles;
    trace.fetch_active = !fetch_stopped_;
    trace.fetch_pc = dp_.pc();
    trace.stages[0] = {ifid_.valid, pc_of(ifid_.op), inst_of(ifid_.op)};
    trace.stages[1] = {idex_.valid, pc_of(idex_.op), inst_of(idex_.op)};
    trace.stages[2] = {exmem_.valid, pc_of(exmem_.op), inst_of(exmem_.op)};
    trace.stages[3] = {memwb_.valid, pc_of(memwb_.op), inst_of(memwb_.op)};
  }

  // ==== WB =================================================================
  // Executes "first" so that, with regfile_write_through, the ID reads
  // later this cycle observe the write (read-during-write bypass).
  bool retire_halt = false;
  struct PendingWrite {
    bool valid = false;
    int rd = 0;
    Word value{};
  } pending_write;
  if (memwb_.valid) {
    if (memwb_.is_halt) {
      retire_halt = true;
      halted_ = true;
      halt_pc_ = memwb_.op->pc;
    } else {
      ++stats_.instructions;
      if (retire_observer_) {
        retire_observer_(inst_of(memwb_.op), memwb_.op->pc, stats_.instructions - 1);
      }
      if (memwb_.writes) {
        if (config_.regfile_write_through) {
          dp_.write_reg(memwb_.op->ta, memwb_.result);
        } else {
          pending_write = {true, memwb_.op->ta, memwb_.result};
        }
      }
    }
  }

  // ==== MEM ================================================================
  MemWb memwb_next;
  if (exmem_.valid) {
    memwb_next.valid = true;
    memwb_next.is_halt = exmem_.is_halt;
    memwb_next.writes = exmem_.writes;
    memwb_next.op = exmem_.op;
    if (exmem_.op->kind == DispatchKind::kLoad) {
      memwb_next.result = dp_.mem_load(exmem_.result);
    } else if (exmem_.op->kind == DispatchKind::kStore) {
      dp_.mem_store(exmem_.result, exmem_.store_val);
    } else {
      memwb_next.result = exmem_.result;
    }
  }

  // ==== EX =================================================================
  // Operand forwarding.  Priority: EX/MEM (distance 1), MEM/WB (distance
  // 2); distance 3 is covered by the write-through read in ID (or by a
  // one-cycle interlock when write-through is disabled).
  auto forward_operand = [&](int reg, const Word& id_read) -> Word {
    if (config_.ex_forwarding) {
      if (exmem_.valid && exmem_.writes && exmem_.op->ta == reg &&
          exmem_.op->kind != DispatchKind::kLoad) {
        return exmem_.result;
      }
      if (memwb_.valid && memwb_.writes && memwb_.op->ta == reg) {
        return memwb_.result;
      }
    }
    return id_read;
  };

  ExMem exmem_next;
  bool ex_redirect = false;       // branch_in_id == false: EX resolves control flow
  int64_t ex_redirect_target = 0;
  bool ex_sees_halt = false;
  // EX combinational result, visible to the ID condition checker this cycle.
  bool ex_value_ready = false;
  Word ex_value{};
  int ex_value_rd = -1;
  if (idex_.valid) {
    const PackedOp& op = *idex_.op;
    const isa::OpcodeSpec& s = isa::spec(opcode_of(op.kind));
    const Word a = s.reads_ta ? forward_operand(op.ta, idex_.a) : idex_.a;
    const Word b = s.reads_tb ? forward_operand(op.tb, idex_.b) : idex_.b;

    exmem_next.valid = true;
    exmem_next.is_halt = idex_.is_halt;
    exmem_next.writes = idex_.writes;
    exmem_next.op = idex_.op;
    switch (op.kind) {
      case DispatchKind::kLoad:
      case DispatchKind::kStore:
        exmem_next.result = dp_.addr_word(b, op.imm);
        exmem_next.store_val = a;
        break;
      case DispatchKind::kHalt:
      case DispatchKind::kJal:
      case DispatchKind::kJalr:
        exmem_next.result = dp_.link(op);
        if (!config_.branch_in_id && !idex_.is_halt) {
          if (op.kind == DispatchKind::kHalt) {
            ex_sees_halt = true;
            exmem_next.is_halt = true;
          } else if (op.kind == DispatchKind::kJal) {
            ex_redirect = true;
            ex_redirect_target = op.taken_pc;
          } else {
            const int64_t target = dp_.jalr_target(b, op.imm);
            if (target == op.pc) {
              ex_sees_halt = true;
              exmem_next.is_halt = true;
            } else {
              ex_redirect = true;
              ex_redirect_target = target;
            }
          }
        }
        break;
      case DispatchKind::kBeq:
      case DispatchKind::kBne:
        if (!config_.branch_in_id) {
          const bool eq = Datapath::lst(b) == op.bcond;
          const bool taken = op.kind == DispatchKind::kBeq ? eq : !eq;
          if (taken) {
            ex_redirect = true;
            ex_redirect_target = op.taken_pc;
          }
        }
        break;
      default:
        exmem_next.result = dp_.alu(op, a, b);
        break;
    }
    if (idex_.writes && op.kind != DispatchKind::kLoad && !exmem_next.is_halt) {
      ex_value_ready = true;
      ex_value = exmem_next.result;
      ex_value_rd = op.ta;
    }
  }

  // ==== ID =================================================================
  IdEx idex_next;
  bool stall = false;
  CycleEvent stall_kind = CycleEvent::kNone;
  bool id_redirect = false;
  int64_t id_redirect_target = 0;
  bool id_sees_halt = false;

  // A poisoned entry only traps if nothing squashes it this cycle (an
  // EX-resolved redirect may still kill it); checked after the IF section.
  const bool poison_pending = ifid_.valid && ifid_.poisoned;
  if (ifid_.valid && !ifid_.poisoned) {
    const PackedOp& op = *ifid_.op;
    const isa::OpcodeSpec& s = isa::spec(opcode_of(op.kind));

    // Is `reg` produced by an instruction still in flight (for stall
    // decisions)?  `allow_exmem`/`allow_memwb` say whether a forwarding
    // path can cover that distance for this consumer.
    auto in_flight_hazard = [&](int reg, bool allow_ex_fwd, bool allow_exmem_fwd,
                                bool allow_memwb_fwd) -> bool {
      if (idex_.valid && idex_.writes && idex_.op->ta == reg) {
        if (idex_.op->kind == DispatchKind::kLoad) return true;  // data not ready before MEM
        if (!allow_ex_fwd) return true;
      }
      if (exmem_.valid && exmem_.writes && exmem_.op->ta == reg) {
        // A load's data is being read from the TDM this very cycle; an ID
        // consumer cannot see it until it lands in MEM/WB.
        if (exmem_.op->kind == DispatchKind::kLoad) return true;
        if (!allow_exmem_fwd) return true;
      }
      if (memwb_.valid && memwb_.writes && memwb_.op->ta == reg) {
        // With write-through, WB already updated the TRF this cycle.
        if (!config_.regfile_write_through && !allow_memwb_fwd) return true;
      }
      return false;
    };

    // --- EX-stage operand hazards (ALU/memory consumers) -----------------
    const bool needs_a_in_ex = s.reads_ta;
    const bool needs_b_in_ex =
        s.reads_tb && !(config_.branch_in_id && (s.is_branch || op.kind == DispatchKind::kJalr));
    uint64_t* stall_counter = nullptr;
    if (config_.ex_forwarding) {
      // Only load-use distance-1 stalls remain.
      auto load_use = [&](int reg) {
        return idex_.valid && idex_.op->kind == DispatchKind::kLoad && idex_.op->ta == reg;
      };
      if ((needs_a_in_ex && load_use(op.ta)) || (needs_b_in_ex && load_use(op.tb))) {
        stall = true;
        stall_counter = &stats_.stall_load_use;
        stall_kind = CycleEvent::kLoadUseStall;
      }
    } else {
      if ((needs_a_in_ex && in_flight_hazard(op.ta, false, false, false)) ||
          (needs_b_in_ex && in_flight_hazard(op.tb, false, false, false))) {
        stall = true;
        stall_counter = &stats_.stall_raw;
        stall_kind = CycleEvent::kRawStall;
      }
    }
    // Without the read-during-write bypass, a distance-3 producer is
    // writing the TRF this very cycle: the stale ID read must retry.
    if (!stall && !config_.regfile_write_through) {
      auto wb_now = [&](int reg) {
        return memwb_.valid && memwb_.writes && memwb_.op->ta == reg;
      };
      if ((needs_a_in_ex && wb_now(op.ta)) || (needs_b_in_ex && wb_now(op.tb))) {
        stall = true;
        stall_counter = &stats_.stall_raw;
        stall_kind = CycleEvent::kRawStall;
      }
    }

    // --- ID-stage consumers: branch condition and JALR base --------------
    Word id_b_value{};  // resolved TRF[Tb] for ID-stage use
    if (!stall && config_.branch_in_id && (s.is_branch || op.kind == DispatchKind::kJalr)) {
      const bool is_jalr = op.kind == DispatchKind::kJalr;
      // JALR's 9-trit base has no EX combinational bypass (long path —
      // paper forwards only the one-trit condition from EX).
      const bool allow_ex_fwd = config_.id_forwarding && !is_jalr;
      const bool allow_exmem_fwd = config_.id_forwarding;
      const bool allow_memwb_fwd = config_.id_forwarding;
      if (in_flight_hazard(op.tb, allow_ex_fwd, allow_exmem_fwd, allow_memwb_fwd)) {
        stall = true;
        stall_counter = &stats_.stall_branch_hazard;
        stall_kind = CycleEvent::kBranchHazardStall;
      } else {
        // Resolve the value through the allowed paths, newest first.
        if (allow_ex_fwd && ex_value_ready && ex_value_rd == op.tb) {
          id_b_value = ex_value;
        } else if (config_.id_forwarding && exmem_.valid && exmem_.writes &&
                   exmem_.op->ta == op.tb && exmem_.op->kind != DispatchKind::kLoad) {
          id_b_value = exmem_.result;
        } else if (!config_.regfile_write_through && config_.id_forwarding && memwb_.valid &&
                   memwb_.writes && memwb_.op->ta == op.tb) {
          id_b_value = memwb_.result;
        } else {
          id_b_value = dp_.read_reg(op.tb);
        }
      }
    }

    if (stall) {
      ++*stall_counter;
    } else {
      // Control-flow resolution in ID.
      if (op.kind == DispatchKind::kHalt) {
        id_sees_halt = true;
      } else if (config_.branch_in_id) {
        switch (op.kind) {
          case DispatchKind::kBeq:
          case DispatchKind::kBne: {
            const bool eq = Datapath::lst(id_b_value) == op.bcond;
            const bool taken = op.kind == DispatchKind::kBeq ? eq : !eq;
            if (taken != ifid_.predicted_taken) {
              id_redirect = true;
              id_redirect_target = taken ? op.taken_pc : op.next_pc;
              if (ifid_.predicted_taken) ++stats_.predictions_wrong;
            } else if (ifid_.predicted_taken) {
              ++stats_.predictions_correct;  // bubble avoided
            }
            break;
          }
          case DispatchKind::kJal:
            if (ifid_.predicted_taken) {
              ++stats_.predictions_correct;  // target folded into the fetch
            } else {
              id_redirect = true;
              id_redirect_target = op.taken_pc;
            }
            break;
          case DispatchKind::kJalr: {
            const int64_t target = dp_.jalr_target(id_b_value, op.imm);
            if (target == op.pc) {
              id_sees_halt = true;
            } else {
              id_redirect = true;
              id_redirect_target = target;
            }
            break;
          }
          default:
            break;
        }
      }
      idex_next.valid = true;
      idex_next.is_halt = id_sees_halt;
      idex_next.writes = s.writes_ta && op.kind != DispatchKind::kHalt;
      idex_next.op = ifid_.op;
      idex_next.a = dp_.read_reg(op.ta);
      idex_next.b = dp_.read_reg(op.tb);
    }
  }

  // ==== IF =================================================================
  IfId ifid_next;
  int64_t pc_next = dp_.pc();
  if (ex_redirect || ex_sees_halt) {
    // EX-resolved control flow (ablation mode): squash both younger stages.
    ifid_next.valid = false;
    idex_next = IdEx{};
    if (ex_redirect) {
      pc_next = ex_redirect_target;
      stats_.flush_taken_branch += 2;
    }
    if (ex_sees_halt) fetch_stopped_ = true;
  } else if (stall) {
    // Hold PC and IF/ID; a bubble (already-empty idex_next) enters EX.
    ifid_next = ifid_;
  } else {
    if (id_sees_halt) fetch_stopped_ = true;
    if (id_redirect) {
      // The instruction fetched this cycle is wrong-path: squash it.
      ifid_next.valid = false;
      pc_next = id_redirect_target;
      ++stats_.flush_taken_branch;
    } else if (!fetch_stopped_) {
      const PackedOp& fetched = image_->fetch(dp_.pc());
      const bool ok = fetched.kind != DispatchKind::kInvalid;
      ifid_next.valid = true;
      ifid_next.poisoned = !ok;
      ifid_next.op = &fetched;
      pc_next = fetched.next_pc;
      // Extension: static prediction at fetch — backward conditional
      // branches predict taken and JAL targets are folded into the fetch.
      // (A JAL row can only carry kJal here: the imm == 0 halt was folded
      // to kHalt.)
      if (config_.static_prediction && config_.branch_in_id && ok) {
        const bool backward_branch =
            (fetched.kind == DispatchKind::kBeq || fetched.kind == DispatchKind::kBne) &&
            fetched.imm < 0;
        const bool direct_jump = fetched.kind == DispatchKind::kJal;
        if (backward_branch || direct_jump) {
          ifid_next.predicted_taken = true;
          pc_next = fetched.taken_pc;
        }
      }
    }
  }

  if (poison_pending && !(ex_redirect || ex_sees_halt)) {
    throw SimError("executing instruction fetched from uninitialised TIM at pc " +
                   std::to_string(ifid_.op->pc));
  }

  // ==== commit clock edge ==================================================
  if (pending_write.valid) dp_.write_reg(pending_write.rd, pending_write.value);
  dp_.set_pc(pc_next);
  ifid_ = ifid_next;
  idex_ = idex_next;
  exmem_ = exmem_next;
  memwb_ = memwb_next;

  if (tracer_) {
    if (retire_halt || id_sees_halt || ex_sees_halt) {
      trace.event = CycleEvent::kHaltSeen;
    } else if (id_redirect || ex_redirect) {
      trace.event = CycleEvent::kTakenBranchFlush;
    } else if (stall) {
      trace.event = stall_kind;
    }
    tracer_(trace);
  }

  if (retire_halt) {
    stats_.halt = HaltReason::kHalted;
    return false;
  }
  return true;
}

}  // namespace detail
}  // namespace art9::sim
