#include "core/processor.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/contracts.hpp"
#include "core/exec.hpp"

namespace steersim {
namespace {

unsigned access_size(Opcode op) {
  return (op == Opcode::kLb || op == Opcode::kSb) ? 1 : 8;
}

/// The raw memory image a store will commit, as 64 bits. Forwarding works
/// on these bits so an flw can forward from an sw (and vice versa) exactly
/// as it would read them from memory.
std::int64_t store_raw_bits(const RuuEntry& store) {
  if (store.inst.op == Opcode::kFsw) {
    return std::bit_cast<std::int64_t>(store.fp_result);
  }
  return store.int_result;
}

bool ranges_overlap(std::uint64_t a, unsigned a_size, std::uint64_t b,
                    unsigned b_size) {
  return a < b + b_size && b < a + a_size;
}

}  // namespace

const MachineConfig& Processor::validated(const MachineConfig& config,
                                          const Program& program) {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("MachineConfig: " + what);
  };
  if (config.fetch_width < 1 || config.fetch_width > kMaxFetchWidth) {
    reject("fetch_width " + std::to_string(config.fetch_width) +
           " outside [1, " + std::to_string(kMaxFetchWidth) + "]");
  }
  if (config.retire_width < 1) {
    reject("retire_width must be at least 1");
  }
  if (config.queue_entries < 1 ||
      config.queue_entries > kMaxWakeupEntries) {
    reject("queue_entries " + std::to_string(config.queue_entries) +
           " outside [1, " + std::to_string(kMaxWakeupEntries) + "]");
  }
  if (config.ruu_entries < 1) {
    reject("ruu_entries must be at least 1");
  }
  if (config.ruu_entries < config.queue_entries) {
    reject("ruu_entries " + std::to_string(config.ruu_entries) +
           " smaller than queue_entries " +
           std::to_string(config.queue_entries) +
           " (every queue row cross-references an RUU entry)");
  }
  if (config.loader.num_slots < 1 ||
      config.loader.num_slots > kMaxRfuSlots) {
    reject("loader.num_slots " + std::to_string(config.loader.num_slots) +
           " outside [1, " + std::to_string(kMaxRfuSlots) + "]");
  }
  if (config.loader.num_slots != config.steering.num_slots) {
    reject("loader.num_slots " + std::to_string(config.loader.num_slots) +
           " != steering.num_slots " +
           std::to_string(config.steering.num_slots));
  }
  if (fu_counts_total(config.steering.ffu) >
      ExecutionEngine::kMaxFixedUnits) {
    reject("steering.ffu total " +
           std::to_string(fu_counts_total(config.steering.ffu)) +
           " exceeds " + std::to_string(ExecutionEngine::kMaxFixedUnits));
  }
  if (config.loader.cycles_per_slot < 1) {
    reject("loader.cycles_per_slot must be at least 1");
  }
  if (config.loader.max_concurrent_regions < 1) {
    reject("loader.max_concurrent_regions must be at least 1");
  }
  if (config.data_memory_bytes == 0) {
    reject("data_memory_bytes must be nonzero");
  }
  if (program.data_bytes() > config.data_memory_bytes) {
    reject("data image of program '" + program.name + "' (" +
           std::to_string(program.data_bytes()) +
           " bytes) exceeds data_memory_bytes " +
           std::to_string(config.data_memory_bytes));
  }
  if (config.fault.upset_rate < 0.0 || config.fault.upset_rate > 1.0) {
    reject("fault.upset_rate " + std::to_string(config.fault.upset_rate) +
           " outside [0, 1]");
  }
  if (config.fault.permanent_rate < 0.0 ||
      config.fault.permanent_rate > 1.0) {
    reject("fault.permanent_rate " +
           std::to_string(config.fault.permanent_rate) + " outside [0, 1]");
  }
  for (const FaultEvent& ev : config.fault.script) {
    if (ev.slot >= config.loader.num_slots) {
      reject("fault script slot " + std::to_string(ev.slot) +
             " >= num_slots " + std::to_string(config.loader.num_slots));
    }
  }
  return config;
}

Processor::Processor(const Program& program, const MachineConfig& config,
                     std::unique_ptr<SteeringPolicy> policy,
                     AllocationVector initial_rfu)
    : config_(validated(config, program)),
      mem_(config.data_memory_bytes),
      dcache_(config.use_dcache ? std::make_unique<DataCache>(config.dcache)
                                : nullptr),
      imem_(program),
      predictor_(make_predictor(config.predictor)),
      trace_cache_(config.use_trace_cache
                       ? std::make_unique<TraceCache>(
                             config.trace_cache_lines, config.trace_length)
                       : nullptr),
      fetch_(imem_, trace_cache_.get(), *predictor_, config.fetch_width),
      wakeup_(config.queue_entries),
      ruu_(config.ruu_entries),
      engine_(config.steering.ffu, config.pipelined_units),
      loader_(config.loader, std::move(initial_rfu)),
      policy_(std::move(policy)),
      injector_(config.fault, config.loader.num_slots),
      recovery_(config.recovery.enabled()
                    ? std::make_unique<RecoveryManager>(config.recovery)
                    : nullptr),
      tracer_(config.trace.enabled ? std::make_unique<Tracer>(config.trace)
                                   : nullptr),
      audit_(config.audit.enabled
                 ? std::make_unique<SteeringAuditLog>(config.audit)
                 : nullptr),
      sampler_(config.sample.enabled()
                   ? std::make_unique<IntervalSampler>(config.sample,
                                                       tracer_.get())
                   : nullptr) {
  STEERSIM_EXPECTS(policy_ != nullptr);
  probe_lookahead_ = trace_cache_ != nullptr && policy_->reads_lookahead();
  // Tracer/audit/sampler no longer veto skip-ahead: a proven-quiescent
  // window produces no per-cycle pipeline events, the policies replay (or
  // decline) their decision records bit-exactly (idle_advance), and
  // try_skip stops at sampler window boundaries so sampling is unchanged.
  skip_eligible_ = recovery_ == nullptr && !config_.fault.enabled() &&
                   !config_.pipelined_units;
  mem_.load_image(program.data);
  loader_.set_tracer(tracer_.get());
  policy_->attach_observers(tracer_.get(), audit_.get());
  if (tracer_ != nullptr) {
    tracer_->ensure_lane(trace_lane::kFetch, "fetch");
    tracer_->ensure_lane(trace_lane::kDispatch, "dispatch");
    tracer_->ensure_lane(trace_lane::kCommit, "commit");
    tracer_->ensure_lane(trace_lane::kFault, "faults");
    tracer_->ensure_lane(trace_lane::kRecovery, "recovery");
  }
}

Processor::Processor(const Program& program, const MachineConfig& config,
                     std::unique_ptr<SteeringPolicy> policy)
    : Processor(program, config, std::move(policy),
                AllocationVector(config.loader.num_slots)) {}

void Processor::fault(std::string message) {
  faulted_ = true;
  fault_message_ = std::move(message);
}

bool Processor::valid_access(std::uint64_t addr, unsigned size) const {
  // Written so that addr + size cannot wrap past the top of the space.
  if (addr > mem_.size() || mem_.size() - addr < size) {
    return false;
  }
  return size == 1 || addr % 8 == 0;
}

std::int64_t Processor::read_int_operand(std::uint64_t producer,
                                         std::uint8_t reg) const {
  if (producer != kNoProducer) {
    if (const RuuEntry* p = ruu_.find(producer)) {
      STEERSIM_ENSURES(p->state != RuuState::kWaiting);
      return p->int_result;
    }
    // Producer retired: its value is architectural now.
  }
  return regs_.read_int(reg);
}

double Processor::read_fp_operand(std::uint64_t producer,
                                  std::uint8_t reg) const {
  if (producer != kNoProducer) {
    if (const RuuEntry* p = ruu_.find(producer)) {
      STEERSIM_ENSURES(p->state != RuuState::kWaiting);
      return p->fp_result;
    }
  }
  return regs_.read_fp(reg);
}

std::optional<std::uint64_t> Processor::load_clear_to_issue(
    unsigned pos) const {
  const RuuEntry& load = ruu_.at(pos);
  const unsigned load_size = access_size(load.inst.op);
  // Scan older stores youngest-first.
  for (unsigned p = pos; p > 0; --p) {
    const RuuEntry& older = ruu_.at(p - 1);
    if (!op_info(older.inst.op).is_store) {
      continue;
    }
    if (!older.addr_known) {
      return std::nullopt;  // unknown older store address: wait
    }
    if (!ranges_overlap(load.mem_addr, load_size, older.mem_addr,
                        older.mem_size)) {
      continue;
    }
    // Exact same address and size: forward the store's data.
    if (older.mem_addr == load.mem_addr && older.mem_size == load_size) {
      return older.id;
    }
    return std::nullopt;  // partial overlap: wait for the store to retire
  }
  return kNoProducer;  // no conflicting older store: read memory
}

void Processor::stage_retire() {
  for (unsigned n = 0; n < config_.retire_width && !ruu_.empty(); ++n) {
    RuuEntry& head = ruu_.at(0);
    if (head.state != RuuState::kDone) {
      return;
    }
    const OpInfo& info = op_info(head.inst.op);

    if (info.is_store) {
      if (!valid_access(head.mem_addr, head.mem_size)) {
        fault("store to invalid address " + std::to_string(head.mem_addr) +
              " at pc " + std::to_string(head.pc));
        return;
      }
      if (recovery_ != nullptr) {
        recovery_->journal_store(mem_, head.mem_addr, head.mem_size);
      }
      switch (head.inst.op) {
        case Opcode::kSw:
          mem_.store_word(head.mem_addr, head.int_result);
          break;
        case Opcode::kSb:
          mem_.store_byte(head.mem_addr, head.int_result);
          break;
        case Opcode::kFsw:
          mem_.store_fp(head.mem_addr, head.fp_result);
          break;
        default:
          STEERSIM_UNREACHABLE("bad store");
      }
    } else if (info.is_load && head.mem_faulted) {
      fault("load from invalid address " + std::to_string(head.mem_addr) +
            " at pc " + std::to_string(head.pc));
      return;
    } else if (info.rd_class == RegClass::kInt) {
      regs_.write_int(head.inst.rd, head.int_result);
    } else if (info.rd_class == RegClass::kFp) {
      regs_.write_fp(head.inst.rd, head.fp_result);
    }

    if (trace_cache_ != nullptr) {
      trace_cache_->observe_retired(head.pc, head.inst, head.actual_next);
    }
    if (retire_hook_) {
      retire_hook_(head);
    }
    if (tracer_ != nullptr) {
      tracer_->instant_pc_id(info.mnemonic, trace_cat::kCommit,
                             trace_lane::kCommit, stats_.cycles, head.pc,
                             head.id);
    }
    wakeup_.retire(static_cast<unsigned>(head.wakeup_row));
    ++stats_.retired;
    const bool is_halt = info.is_halt;
    ruu_.retire_head();
    if (is_halt) {
      halted_ = true;
      if (trace_cache_ != nullptr) {
        trace_cache_->flush_fill_buffer();
      }
      return;
    }
  }
}

void Processor::stage_faults() {
  if (!config_.fault.enabled()) {
    return;
  }
  for (const FaultEvent& ev : injector_.sample(stats_.cycles)) {
    const bool accepted = ev.kind == FaultKind::kPermanentFailure
                              ? loader_.fence_slot(ev.slot)
                              : loader_.corrupt_slot(ev.slot);
    if (!accepted) {
      continue;  // slot already fenced: dead logic absorbs the hit
    }
    if (tracer_ != nullptr &&
        tracer_->wants(trace_cat::kFault, stats_.cycles)) {
      TraceArgs args;
      args.num("slot", std::uint64_t{ev.slot});
      tracer_->instant(ev.kind == FaultKind::kPermanentFailure ? "fence"
                                                               : "upset",
                       trace_cat::kFault, trace_lane::kFault, stats_.cycles,
                       args);
    }
    if (ev.kind == FaultKind::kPermanentFailure) {
      ++fault_stats_.permanent_failures;
      // Checkpoint recovery treats a permanent failure as a rollback
      // trigger: the fence (and its re-placement) stands, but execution
      // restarts from the snapshot instead of limping on kill/retry.
      if (recovery_ != nullptr && recovery_->has_checkpoint()) {
        rollback_pending_ = true;
      }
    } else {
      ++fault_stats_.upsets_injected;
    }
    // An upset under an executing instruction kills the execution: the
    // scheduler rolls the instruction back to waiting so it reissues on a
    // healthy unit — an FFU, another instance, or this slot once repaired.
    // No dependent has consumed the result yet (results broadcast only at
    // completion), so the rollback is invisible to architectural state.
    for (const unsigned row : engine_.kill_slot(ev.slot)) {
      RuuEntry* entry = ruu_.find(wakeup_.entry(row).tag);
      STEERSIM_ENSURES(entry != nullptr &&
                       entry->wakeup_row == static_cast<int>(row));
      entry->state = RuuState::kWaiting;
      entry->fault_retry = true;
      wakeup_.reschedule(row);
      ++fault_stats_.executions_killed;
    }
  }
}

void Processor::stage_complete() {
  // Snapshot each completion's (tag, row) before any squash can recycle a
  // row, packed as tag * kMaxWakeupEntries + row so one integer sort
  // resolves them oldest-first (tags are distinct RUU ids): an older
  // mispredict squashes younger completions before they act.
  FixedVector<std::uint64_t, kMaxWakeupEntries> completed;
  for (const unsigned row : engine_.step()) {
    completed.push_back(wakeup_.entry(row).tag * kMaxWakeupEntries + row);
  }
  std::sort(completed.begin(), completed.end());
  for (const std::uint64_t packed : completed) {
    const auto row = static_cast<unsigned>(packed % kMaxWakeupEntries);
    const std::uint64_t tag = packed / kMaxWakeupEntries;
    RuuEntry* entry = ruu_.find(tag);
    if (entry == nullptr || entry->wakeup_row != static_cast<int>(row)) {
      continue;  // squashed by an older mispredict this same cycle
    }
    entry->state = RuuState::kDone;
    entry->cycle_complete = stats_.cycles;

    const OpInfo& info = op_info(entry->inst.op);
    if (tracer_ != nullptr &&
        tracer_->wants_span(trace_cat::kExecute, entry->cycle_issue,
                            stats_.cycles - entry->cycle_issue)) {
      const unsigned lane = trace_lane::kExecuteBase + row;
      if (!tracer_->lane_named(lane)) {
        tracer_->ensure_lane(lane, "exec row " + std::to_string(row));
      }
      tracer_->complete_pc_id(info.mnemonic, lane, entry->cycle_issue,
                              stats_.cycles - entry->cycle_issue, entry->pc,
                              entry->id);
    }
    if (info.is_branch) {
      ++stats_.branches;
      predictor_->update(entry->pc, entry->branch_taken);
    }
    if ((info.is_branch || info.is_jump) &&
        entry->actual_next != entry->predicted_next) {
      ++stats_.mispredicts;
      const std::uint64_t branch_id = entry->id;
      const std::uint32_t redirect_pc = entry->actual_next;
      stats_.squashed += ruu_.squash_younger_than(
          branch_id, [this](const RuuEntry& squashed) {
            engine_.cancel(static_cast<unsigned>(squashed.wakeup_row));
            wakeup_.squash(static_cast<unsigned>(squashed.wakeup_row));
          });
      decode_buffer_.clear();
      fetch_.redirect(redirect_pc);
    }
  }
}

void Processor::stage_issue() {
  // Issue consults the *effective* allocation: units overlapping corrupted
  // or fenced slots are masked out so nothing issues to broken hardware.
  // Without faults this is exactly loader_.allocation().
  const AllocationVector& effective = loader_.effective_allocation();
  engine_.begin_cycle(effective);
  const auto view = engine_.issue_view();

  // One pass derives both the wake-up requests and the resource-starvation
  // statistic (entries whose dependences are satisfied but whose unit type
  // is not configured/available this cycle).
  const EntryMask dep_ready = wakeup_.dep_ready();
  EntryMask requests = dep_ready & wakeup_.resource_ready(view.available);
  stats_.resource_starved += (dep_ready & ~requests).count();

  // Memory-ordering mask for loads.
  std::uint64_t pending = requests.raw();
  while (pending != 0) {
    const unsigned row = static_cast<unsigned>(std::countr_zero(pending));
    pending &= pending - 1;
    RuuEntry* entry = ruu_.find(wakeup_.entry(row).tag);
    STEERSIM_ENSURES(entry != nullptr);
    if (!op_info(entry->inst.op).is_load) {
      continue;
    }
    // The load's address depends only on rs1, which is ready (deps
    // satisfied); compute it for the ordering check.
    const std::int64_t base =
        read_int_operand(entry->src1_producer, entry->inst.rs1);
    entry->mem_addr = static_cast<std::uint64_t>(base) +
                      static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(entry->inst.imm));
    if (!load_clear_to_issue(static_cast<unsigned>(
                                 entry->id - ruu_.at(0).id))
             .has_value()) {
      requests.reset(row);
    }
  }

  const auto age_order = wakeup_.age_order();
  const GrantList grants =
      select_oldest_first(wakeup_, requests, age_order, view.free,
                          config_.issue_width);

  for (const unsigned row : grants) {
    RuuEntry* entry = ruu_.find(wakeup_.entry(row).tag);
    STEERSIM_ENSURES(entry != nullptr);
    if (entry->fault_retry) {
      entry->fault_retry = false;
      ++fault_stats_.instructions_retried;
    }
    const Instruction& inst = entry->inst;
    const OpInfo& info = op_info(inst.op);

    ExecInput in;
    in.pc = entry->pc;
    if (info.rs1_class == RegClass::kInt) {
      in.rs1_int = read_int_operand(entry->src1_producer, inst.rs1);
    } else if (info.rs1_class == RegClass::kFp) {
      in.rs1_fp = read_fp_operand(entry->src1_producer, inst.rs1);
    }
    if (info.rs2_class == RegClass::kInt) {
      in.rs2_int = read_int_operand(entry->src2_producer, inst.rs2);
    } else if (info.rs2_class == RegClass::kFp) {
      in.rs2_fp = read_fp_operand(entry->src2_producer, inst.rs2);
    }

    const ExecOutput out = execute_op(inst, in);
    entry->branch_taken = out.branch_taken;
    entry->actual_next = (info.is_branch || info.is_jump)
                             ? out.next_pc
                             : entry->pc + 1;
    entry->int_result = out.int_value;
    entry->fp_result = out.fp_value;

    if (info.is_store) {
      entry->mem_addr = out.mem_addr;
      entry->mem_size = access_size(inst.op);
      entry->addr_known = true;
    } else if (info.is_load) {
      entry->mem_addr = out.mem_addr;
      entry->mem_size = access_size(inst.op);
      entry->addr_known = true;
      const auto forward = load_clear_to_issue(
          static_cast<unsigned>(entry->id - ruu_.at(0).id));
      STEERSIM_ENSURES(forward.has_value());
      if (*forward != kNoProducer) {
        const RuuEntry* store = ruu_.find(*forward);
        STEERSIM_ENSURES(store != nullptr);
        const std::int64_t raw = store_raw_bits(*store);
        switch (inst.op) {
          case Opcode::kLw:
            entry->int_result = raw;
            break;
          case Opcode::kLb:  // sb stores the low byte; lb sign-extends it
            entry->int_result = static_cast<std::int8_t>(raw & 0xff);
            break;
          case Opcode::kFlw:
            entry->fp_result = std::bit_cast<double>(raw);
            break;
          default:
            STEERSIM_UNREACHABLE("bad load");
        }
      } else if (!valid_access(out.mem_addr, entry->mem_size)) {
        entry->mem_faulted = true;  // benign unless it retires
      } else {
        switch (inst.op) {
          case Opcode::kLw:
            entry->int_result = mem_.load_word(out.mem_addr);
            break;
          case Opcode::kLb:
            entry->int_result = mem_.load_byte(out.mem_addr);
            break;
          case Opcode::kFlw:
            entry->fp_result = mem_.load_fp(out.mem_addr);
            break;
          default:
            STEERSIM_UNREACHABLE("bad load");
        }
      }
    }

    entry->state = RuuState::kIssued;
    entry->cycle_issue = stats_.cycles;
    // Memory operations consult the data-cache timing model (hit/miss
    // resolved at issue, when the address is known); other operations use
    // the fixed latency table.
    unsigned latency = info.latency;
    if (dcache_ != nullptr && (info.is_load || info.is_store) &&
        !entry->mem_faulted) {
      latency = dcache_->access(entry->mem_addr);
    }
    wakeup_.grant(row, latency);
    const bool assigned =
        engine_.assign(fu_type_of(inst.op), latency, row);
    STEERSIM_ENSURES(assigned);
    ++stats_.issued;
  }
}

SteerContext Processor::steer_context() const {
  // The configuration manager inspects the queue entries that are ready to
  // be executed (valid, not yet scheduled): the wake-up array's required
  // columns already hold their stage-1 one-hots.
  SteerContext ctx;
  ctx.required = wakeup_.ready_requirements();
  ctx.current_total = engine_.configured_units();
  ctx.cycle = stats_.cycles;
  // Lookahead probe: the pre-decoded requirements of the trace line the
  // fetch unit is about to stream, if it will hit and the policy reads it.
  if (probe_lookahead_) {
    if (const TraceLine* line = trace_cache_->peek(fetch_.pc())) {
      ctx.lookahead = &line->requirements;
    }
  }
  return ctx;
}

void Processor::stage_steer() {
  policy_->steer(steer_context(), loader_);
  loader_.step(engine_.slot_busy());
}

std::uint64_t Processor::try_skip(std::uint64_t budget) {
  if (!skip_eligible_ || budget == 0) {
    return 0;
  }
  // Front end stalled: dispatch blocked on a full window AND fetch blocked
  // on a full decode buffer (an empty-enough buffer would fetch, which
  // moves predictor/trace-cache state).
  if (!(ruu_.full() || wakeup_.full())) {
    return 0;
  }
  if (decode_buffer_.size() + config_.fetch_width <=
      decode_buffer_.capacity()) {
    return 0;
  }
  // Nothing can retire: the RUU head is not done (and stays not-done while
  // nothing completes).
  if (ruu_.empty() || ruu_.at(0).state == RuuState::kDone) {
    return 0;
  }
  // The loader must be a pure cycle counter for the whole window.
  if (!loader_.quiescent()) {
    return 0;
  }
  // Nothing completes during the window: every in-flight op needs at least
  // min_remaining cycles, so k <= min_remaining - 1 keeps them in flight.
  const unsigned min_rem = engine_.min_remaining();
  if (min_rem < 2) {
    return 0;
  }
  // Nothing can issue this cycle (and therefore for the whole window: the
  // dependence and availability inputs cannot change while nothing wakes).
  const AllocationVector& effective = loader_.effective_allocation();
  engine_.begin_cycle(effective);
  const auto view = engine_.issue_view();
  const EntryMask dep_ready = wakeup_.dep_ready();
  if ((dep_ready & wakeup_.resource_ready(view.available)).any()) {
    return 0;
  }
  std::uint64_t k = min_rem - 1;
  const unsigned wakeup_timer = wakeup_.min_timer();
  if (wakeup_timer > 0) {
    k = std::min<std::uint64_t>(k, wakeup_timer);
  }
  k = std::min(k, budget);
  if (sampler_ != nullptr) {
    // Never skip across a sampler window boundary: maybe_sample() below
    // then fires at exactly the cycles a live-stepped run would sample,
    // so sampled CSVs and counter tracks stay bit-identical.
    const std::uint64_t period = sampler_->config().period;
    k = std::min(k, period - stats_.cycles % period);
  }
  if (k == 0) {
    return 0;
  }
  // Ask the policy to emulate up to k back-to-back steer() calls.
  const std::uint64_t advanced =
      policy_->idle_advance(k, steer_context(), loader_);
  if (advanced == 0) {
    return 0;
  }
  // Replay the per-cycle bookkeeping the skipped cycles would have done.
  stats_.resource_starved += advanced * dep_ready.count();
  engine_.fast_forward(advanced);
  loader_.fast_forward(advanced);
  wakeup_.advance(advanced);
  stats_.queue_occupancy_sum +=
      advanced * (wakeup_.num_entries() - wakeup_.free_entries());
  if (tracer_ != nullptr) {
    // One synthetic span covering the whole window on a dedicated lane;
    // the per-decision steer events inside it were already replayed by
    // idle_advance, and no other per-cycle event can occur while the
    // machine is provably idle.
    tracer_->skip_span(stats_.cycles, advanced);
  }
  end_cycles(advanced);
  return advanced;
}

std::uint32_t Processor::next_architectural_pc() const {
  // Oldest un-retired instruction. The RUU head is on the committed path
  // (every older branch retired); with the RUU empty, any mispredicted
  // older branch already redirected fetch and cleared the decode buffer
  // when it completed, so the buffer head (or the fetch PC) is committed-
  // path too.
  if (!ruu_.empty()) {
    return ruu_.at(0).pc;
  }
  if (!decode_buffer_.empty()) {
    return decode_buffer_[0].pc;
  }
  return fetch_.pc();
}

void Processor::take_checkpoint() {
  Checkpoint cp;
  cp.cycle = stats_.cycles;
  cp.retired = stats_.retired;
  cp.resume_pc = next_architectural_pc();
  cp.regs = regs_;
  cp.fabric = loader_.allocation();
  cp.requested = loader_.requested();
  cp.fenced = loader_.fenced();
  if (tracer_ != nullptr &&
      tracer_->wants(trace_cat::kRecovery, stats_.cycles)) {
    TraceArgs args;
    args.num("resume_pc", std::uint64_t{cp.resume_pc});
    tracer_->instant("checkpoint", trace_cat::kRecovery,
                     trace_lane::kRecovery, stats_.cycles, args);
  }
  recovery_->take_checkpoint(std::move(cp));
}

void Processor::perform_rollback() {
  const Checkpoint& cp = recovery_->checkpoint();
  // Flush the whole window — a rollback squashes like a mispredict at the
  // checkpoint boundary, so no in-flight result survives.
  const unsigned flushed = ruu_.squash_all([this](const RuuEntry& squashed) {
    engine_.cancel(static_cast<unsigned>(squashed.wakeup_row));
    wakeup_.squash(static_cast<unsigned>(squashed.wakeup_row));
  });
  decode_buffer_.clear();
  regs_ = cp.regs;
  recovery_->unwind_memory(mem_);
  fetch_.redirect(cp.resume_pc);
  // Restore steering intent. request() re-places it around the current
  // fence set, which may have grown since the snapshot — that is the
  // "re-place the fabric around the fences" half of recovery.
  loader_.request(cp.requested);
  if (tracer_ != nullptr &&
      tracer_->wants(trace_cat::kRecovery, stats_.cycles)) {
    TraceArgs args;
    args.num("resume_pc", std::uint64_t{cp.resume_pc})
        .num("flushed", std::uint64_t{flushed});
    tracer_->instant("rollback", trace_cat::kRecovery, trace_lane::kRecovery,
                     stats_.cycles, args);
  }
  recovery_->note_rollback(stats_.cycles, stats_.retired, flushed);
  // Rewind the commit counter with the architecture: `retired` means
  // committed-and-not-rolled-back, so replayed instructions are not
  // double-counted (the replay cost lives in RecoveryStats) and a later
  // checkpoint's `retired` stays aligned with the committed stream.
  stats_.retired = cp.retired;
}

void Processor::stage_dispatch() {
  std::size_t consumed = 0;
  while (consumed < decode_buffer_.size() && !ruu_.full() &&
         !wakeup_.full()) {
    const FetchedInst& fi = decode_buffer_[consumed];
    const OpInfo& info = op_info(fi.inst.op);

    // Dependency buffer lookups must precede allocation so an instruction
    // never appears as its own producer.
    const std::uint64_t src1 =
        ruu_.latest_producer(info.rs1_class, fi.inst.rs1);
    const std::uint64_t src2 =
        ruu_.latest_producer(info.rs2_class, fi.inst.rs2);

    RuuEntry& entry = ruu_.allocate(fi.inst);
    entry.pc = fi.pc;
    entry.predicted_next = fi.predicted_next;
    entry.actual_next = fi.pc + 1;
    entry.src1_producer = src1;
    entry.src2_producer = src2;
    entry.cycle_dispatch = stats_.cycles;

    EntryMask deps;
    for (const std::uint64_t producer : {src1, src2}) {
      if (producer == kNoProducer) {
        continue;
      }
      const RuuEntry* p = ruu_.find(producer);
      STEERSIM_ENSURES(p != nullptr);
      deps.set(static_cast<unsigned>(p->wakeup_row));
    }

    const auto row = wakeup_.insert(fu_type_of(fi.inst.op), deps, entry.id);
    STEERSIM_ENSURES(row.has_value());
    entry.wakeup_row = static_cast<int>(*row);
    if (tracer_ != nullptr) {
      tracer_->instant_pc_id(info.mnemonic, trace_cat::kDispatch,
                             trace_lane::kDispatch, stats_.cycles, fi.pc,
                             entry.id);
    }
    ++stats_.dispatched;
    ++consumed;
  }
  decode_buffer_.erase_front(consumed);
}

void Processor::stage_fetch() {
  if (decode_buffer_.size() + config_.fetch_width >
      decode_buffer_.capacity()) {
    return;  // decode buffer full; front end stalls
  }
  FetchGroup group;
  fetch_.fetch_group(group);
  if (tracer_ != nullptr && !group.empty()) {
    tracer_->instant_fetch(stats_.cycles, group[0].pc, group.size(),
                           group[0].from_trace);
  }
  for (const auto& fi : group) {
    decode_buffer_.push_back(fi);
  }
}

MetricRegistry Processor::live_metrics() const {
  // Prefixes and ordering mirror collect_metrics() (sim/metrics.cpp) so a
  // live snapshot and a finished SimResult enumerate the same namespace.
  // Absent optional modules contribute default (all-zero) stats, exactly
  // as they remain default in a SimResult.
  MetricRegistry reg;
  stats_.visit_metrics(reg.prefixed("sim."));
  loader_.stats().visit_metrics(reg.prefixed("loader."));
  policy_->stats().visit_metrics(reg.prefixed("steer."));
  engine_.stats().visit_metrics(reg.prefixed("engine."));
  fetch_.stats().visit_metrics(reg.prefixed("fetch."));
  (trace_cache_ != nullptr ? trace_cache_->stats() : TraceCacheStats{})
      .visit_metrics(reg.prefixed("tcache."));
  wakeup_.stats().visit_metrics(reg.prefixed("wakeup."));
  (dcache_ != nullptr ? dcache_->stats() : CacheStats{})
      .visit_metrics(reg.prefixed("dcache."));
  fault_stats_.visit_metrics(reg.prefixed("fault."));
  (recovery_ != nullptr ? recovery_->stats() : RecoveryStats{})
      .visit_metrics(reg.prefixed("recovery."));
  return reg;
}

void Processor::maybe_sample() {
  if (sampler_ != nullptr && sampler_->due(stats_.cycles)) {
    sampler_->sample(live_metrics(), stats_.cycles);
    if (tracer_ != nullptr) {
      // Window boundary: drain the tracer's event ring so trace output
      // advances in lockstep with the sampled telemetry.
      tracer_->flush();
    }
  }
}

void Processor::flush_sampler() {
  if (sampler_ != nullptr) {
    sampler_->flush(live_metrics(), stats_.cycles);
  }
}

void Processor::step() {
  STEERSIM_EXPECTS(!halted_ && !faulted_);
  stage_retire();
  if (halted_ || faulted_) {
    end_cycles(1);
    return;
  }
  // Checkpoint right after retire: the snapshot captures a clean boundary
  // (this cycle's commits drained, nothing new dispatched yet).
  if (recovery_ != nullptr && recovery_->checkpoint_due(stats_.cycles)) {
    take_checkpoint();
  }
  stage_faults();
  stage_complete();
  stage_issue();
  stage_steer();
  // Rollback triggers fire during faults (permanent failure) or steer (the
  // loader's ECC decode escalating an uncorrectable word); apply them once
  // here, before new work dispatches into the window.
  if (recovery_ != nullptr) {
    const std::uint64_t uncorrectable = loader_.stats().ecc_uncorrectable;
    if (uncorrectable > ecc_uncorrectable_seen_) {
      ecc_uncorrectable_seen_ = uncorrectable;
      if (recovery_->has_checkpoint()) {
        rollback_pending_ = true;
      }
    }
    if (rollback_pending_) {
      rollback_pending_ = false;
      perform_rollback();
    }
  }
  stage_dispatch();
  stage_fetch();
  wakeup_.tick();
  engine_.note_utilization();
  stats_.queue_occupancy_sum +=
      wakeup_.num_entries() - wakeup_.free_entries();
  end_cycles(1);
}

RunOutcome Processor::run(std::uint64_t max_cycles) {
  while (!stopped() && stats_.cycles < max_cycles) {
    // Event-driven skip-ahead: when the machine is provably idle until the
    // next unit completion, advance the clock in one shot.
    if (try_skip(max_cycles - stats_.cycles) == 0) {
      step();
    }
  }
  flush_sampler();
  return outcome();
}

RunOutcome Processor::outcome() const {
  if (halted_) {
    return RunOutcome::kHalted;
  }
  if (faulted_) {
    return RunOutcome::kFault;
  }
  return stalled_ ? RunOutcome::kStalled : RunOutcome::kMaxCycles;
}

void Processor::end_cycles(std::uint64_t cycles) {
  stats_.cycles += cycles;
  if (stats_.retired != last_retired_) {
    last_retired_ = stats_.retired;
    stall_window_ = 0;
  } else {
    stall_window_ += cycles;
    if (stall_window_ >= kStallLimit && !stopped()) {
      stalled_ = true;
      fault_message_ = stall_digest();
    }
  }
  maybe_sample();
}

std::string Processor::stall_digest() const {
  std::string digest =
      "stalled: no retirement for " + std::to_string(stall_window_) +
      " cycles at cycle " + std::to_string(stats_.cycles) + ", retired " +
      std::to_string(stats_.retired);
  if (ruu_.empty()) {
    digest += ", ruu empty";
  } else {
    const RuuEntry& head = ruu_.at(0);
    static constexpr const char* kStateNames[] = {"waiting", "issued",
                                                  "done"};
    digest += ", ruu head pc " + std::to_string(head.pc) + " " +
              std::string(op_info(head.inst.op).mnemonic) + " (" +
              kStateNames[static_cast<unsigned>(head.state)] + ")";
  }
  digest += ", ruu " + std::to_string(ruu_.size()) + "/" +
            std::to_string(ruu_.capacity()) + ", queue " +
            std::to_string(wakeup_.num_entries() - wakeup_.free_entries()) +
            "/" + std::to_string(wakeup_.num_entries()) + ", alloc [" +
            loader_.allocation().to_string() + "], target [" +
            loader_.target().to_string() + "]";
  if (loader_.reconfiguring().any()) {
    digest += ", reconfiguring";
  }
  if (loader_.fenced().any()) {
    digest += ", fenced slots " + std::to_string(loader_.fenced().count());
  }
  if (loader_.corrupted().any()) {
    digest +=
        ", corrupted slots " + std::to_string(loader_.corrupted().count());
  }
  return digest;
}

}  // namespace steersim
