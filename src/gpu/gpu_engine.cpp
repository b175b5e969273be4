#include "gpu/gpu_engine.hpp"

#include <algorithm>

namespace uvmsim {
namespace {

bool resident_in(ResidencyOracle::Table table, PageId page) {
  const VaBlockId b = va_block_of(page);
  return b < table.count && table.blocks[b].test(page_index_in_block(page));
}

}  // namespace

GpuEngine::GpuEngine(const GpuConfig& config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      buffer_(config.fault_buffer_entries),
      screens_(config.num_utlbs()),
      sm_tokens_(config.num_sms, config.sm_token_capacity),
      sm_active_blocks_(config.num_sms, 0),
      sm_arrival_cursor_(config.num_sms, 0) {
  utlbs_.reserve(config.num_utlbs());
  for (std::uint32_t i = 0; i < config.num_utlbs(); ++i) {
    utlbs_.emplace_back(config.utlb_outstanding_cap);
  }
}

void GpuEngine::launch(const KernelDesc& kernel, PageId page_offset) {
  kernel_ = &kernel;
  page_offset_ = page_offset;
  next_block_ = 0;
  active_blocks_.clear();
  std::fill(sm_active_blocks_.begin(), sm_active_blocks_.end(), 0u);
  std::fill(sm_tokens_.begin(), sm_tokens_.end(), config_.sm_token_capacity);
  for (auto& tlb : utlbs_) tlb.clear();
  std::ranges::fill(screens_, Screen{});
  active_warps_ = 0;

  // Size the arena for the most blocks that can be resident at once.
  const auto slots = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      kernel.num_blocks(),
      std::uint64_t{config_.num_sms} * config_.max_blocks_per_sm));
  warp_stride_ = kernel.max_block_size();
  state_shift_ = static_cast<unsigned>(
      std::countr_zero(std::bit_ceil(std::max(1u, kernel.max_group_size()))));
  warps_.assign(std::size_t{slots} * warp_stride_, WarpRt{});
  states_.assign(warps_.size() << state_shift_, kPending);
  parked_.reset(states_.size());
  free_blocks_.resize(slots);
  for (std::uint32_t i = 0; i < slots; ++i) {
    free_blocks_[i] = (slots - 1 - i) * warp_stride_;
  }
  schedule_pending_blocks();
}

void GpuEngine::schedule_pending_blocks() {
  // Fill SMs breadth-first: each new block goes to the least-loaded SM,
  // ties broken by index — the round-robin placement real block schedulers
  // approximate. This is what spreads a kernel's access frontier across
  // (nearly) all SMs, the root cause of Table 2's fault-origin mix.
  while (next_block_ < kernel_->num_blocks()) {
    std::uint32_t best_sm = 0;
    std::uint32_t best_load = sm_active_blocks_[0];
    for (std::uint32_t sm = 1; sm < config_.num_sms; ++sm) {
      if (sm_active_blocks_[sm] < best_load) {
        best_load = sm_active_blocks_[sm];
        best_sm = sm;
      }
    }
    if (best_load >= config_.max_blocks_per_sm) break;

    BlockRt rt;
    rt.block_id = next_block_++;
    rt.sm = best_sm;
    rt.first_slot = free_blocks_.back();
    free_blocks_.pop_back();
    const IndexRange warps = kernel_->warps_of(rt.block_id);
    rt.num_warps = warps.size();
    for (std::uint32_t w = 0; w < warps.size(); ++w) {
      const std::uint32_t slot = rt.first_slot + w;
      const IndexRange groups = kernel_->groups_of(warps.first + w);
      WarpRt& warp = warps_[slot];
      warp = WarpRt{};
      warp.group = groups.first;
      warp.group_end = groups.last;
      warp.utlb = config_.utlb_of_sm(best_sm);
      load_group(slot);
      if (!warp.finished()) ++rt.live_warps;
    }
    active_warps_ += rt.live_warps;
    ++sm_active_blocks_[best_sm];
    active_blocks_.push_back(rt);
  }
}

void GpuEngine::load_group(std::uint32_t slot) {
  WarpRt& warp = warps_[slot];
  warp.remaining =
      warp.finished() ? 0 : kernel_->accesses_of(warp.group).size();
  std::fill_n(states_of(slot), warp.remaining, kPending);
}

SimTime GpuEngine::block_phase(BlockRt& block) {
  // A thread block's warps progress together; the de-synchronization that
  // spreads fault onset across a window happens at block granularity
  // (scheduling skew plus divergent compute progress between blocks).
  if (block.phase_window != window_seq_) {
    block.phase_window = window_seq_;
    block.phase = config_.warp_phase_spread_ns
                      ? rng_.uniform(config_.warp_phase_spread_ns)
                      : 0;
  }
  return block.phase;
}

void GpuEngine::emit_fault(PageId page, AccessType type, std::uint32_t sm,
                           std::uint32_t block, SimTime now, SimTime phase,
                           bool duplicate, GenerateResult& result) {
  FaultRecord fault;
  fault.page = page;
  fault.access = type;
  fault.sm = sm;
  fault.utlb = config_.utlb_of_sm(sm);
  fault.block = block;
  fault.is_duplicate_emission = duplicate;
  // Each SM's fault stream is paced independently — the GMMU serializes
  // per client, but SMs fault concurrently.
  fault.timestamp = now + phase +
                    sm_arrival_cursor_[sm] * config_.fault_arrival_gap_ns +
                    (config_.fault_arrival_jitter_ns
                         ? rng_.uniform(config_.fault_arrival_jitter_ns)
                         : 0);
  ++sm_arrival_cursor_[sm];
  buffer_.push(fault);  // hardware drops on overflow; push() accounts it
  ++emitted_;
  ++result.faults_pushed;
  if (duplicate) {
    ++dups_;
    ++result.duplicate_pushes;
  }
}

ResidencyOracle::PageLocation GpuEngine::locate(
    PageId page, const ResidencyOracle& residency,
    ResidencyOracle::Table table) {
  ++probes_;
  if (resident_in(table, page)) {
    return ResidencyOracle::PageLocation::kGpuResident;
  }
  if (table.misses_fault) return ResidencyOracle::PageLocation::kFaultRequired;
  ++oracle_probes_;
  return residency.classify(page);
}

void GpuEngine::advance_warp(BlockRt& block, std::uint32_t slot, SimTime now,
                             const ResidencyOracle& residency,
                             ResidencyOracle::Table table, bool replayed,
                             GenerateResult& result) {
  ++visits_;
  WarpRt& warp = warps_[slot];
  if (warp.park != 0) unpark(slot);
  std::uint8_t* const state = states_of(slot);
  bool progressed = false;
  bool left_waiting = false;   // the visit skipped a waiting access
  bool reissue_blocked = false;
  // Zero-compute warps (dependence-free access microbenchmarks) never
  // de-synchronize: their faults arrive back-to-back at hardware rate.
  const bool zero_compute = kernel_->compute_ns(warp.group) == 0;
  const SimTime phase = zero_compute ? 0 : block_phase(block);
  UTlb& tlb = utlbs_[warp.utlb];
  while (!warp.finished()) {
    const IndexRange accesses = kernel_->accesses_of(warp.group);
    bool blocked = false;

    for (std::uint32_t i = 0; i < accesses.size(); ++i) {
      std::uint8_t& st = state[i];
      if (st == kDone) continue;
      if (st == kWaiting) {
        if (!replayed) {
          left_waiting = true;
          continue;
        }
        st = kReissue;  // the replay since its last visit cleared its entry
      }
      const bool is_reissue = st == kReissue;
      const PageAccess access = kernel_->access(accesses.first + i);
      const PageId page = access.page + page_offset_;
      const auto location = locate(page, residency, table);

      if (access.type == AccessType::kPrefetch) {
        // Fire-and-forget: no scoreboard, no µTLB entry, no throttle token,
        // and no retry if the driver drops it (Fig 5 semantics). Remote-
        // mapped pages are never prefetched (their advice pins them).
        if (location == ResidencyOracle::PageLocation::kFaultRequired) {
          emit_fault(page, access.type, block.sm, block.block_id, now, phase,
                     /*duplicate=*/false, result);
        }
        st = kDone;
        --warp.remaining;
        progressed = true;
        continue;
      }

      if (location == ResidencyOracle::PageLocation::kGpuResident) {
        st = kDone;
        --warp.remaining;
        progressed = true;
        continue;
      }

      if (location == ResidencyOracle::PageLocation::kRemoteMapped) {
        // The access completes over the interconnect without faulting:
        // no driver batch and no migration, but the request crosses PCIe
        // (charged at pipelined throughput by the simulator loop) and
        // bumps the page's MIMC access counter at µTLB resolution.
        st = kDone;
        --warp.remaining;
        ++result.remote_requests;
        ++remote_accesses_;
        if (counters_) counters_->record_remote_access(page, block.sm, now);
        progressed = true;
        continue;
      }

      if (tlb.has_outstanding(page)) {
        // Another thread on this µTLB already faulted this page; this
        // thread waits on the same entry and may emit a type-1 duplicate.
        // Reissued accesses join silently (the µTLB entry already carries
        // their replay state).
        if (!is_reissue && rng_.bernoulli(config_.dup_same_utlb_prob)) {
          emit_fault(page, access.type, block.sm, block.block_id, now, phase,
                     /*duplicate=*/true, result);
        }
        st = kWaiting;
        progressed = true;
        continue;
      }

      if (!tlb.full() && (is_reissue || sm_tokens_[block.sm] > 0)) {
        if (!is_reissue) --sm_tokens_[block.sm];
        tlb.add_outstanding(page);
        if (screens_[warp.utlb].may_hold(page)) wake_joiners(warp.utlb, page);
        // Reissues re-traverse the µTLB/GMMU path just like first issues
        // and land with the warp's de-synchronization phase.
        emit_fault(page, access.type, block.sm, block.block_id, now, phase,
                   /*duplicate=*/false, result);
        st = kWaiting;
        progressed = true;
        continue;
      }
      // Blocked by the µTLB cap or the fault-rate throttle: stays pending.
      blocked = true;
      reissue_blocked = reissue_blocked || is_reissue;
    }

    if (warp.remaining != 0) {
      // Scoreboard stall until replay. Waiting accesses and accesses
      // behind a full µTLB stay put for the rest of the window; only a
      // throttle-blocked access can still join a sibling's new entry.
      if (!blocked || tlb.full()) {
        warp.settled_window = static_cast<std::uint32_t>(window_seq_);
      }
      break;
    }

    // Group complete: charge its compute and move to the next group.
    result.compute_ns += kernel_->compute_ns(warp.group);
    ++warp.group;
    load_group(slot);
    progressed = true;
  }
  if (progressed) return;
  ++idle_visits_;
  // Only a table that promises misses_fault lets a skip know the outcome
  // of every probe the visit would make.
  if (table.misses_fault) {
    park(slot, static_cast<std::uint8_t>(
                   (left_waiting ? kParkedWaiting : 0) |
                   (reissue_blocked ? kParkedReissue : 0)));
  }
}

// Whether a scan may skip a warp with kParked set. Its visit would change
// nothing while its µTLB is full, or while its SM has no token and none of
// its accesses may reissue (a waiting access does so in the first pass
// after a replay): every access it left pending or reissued is not
// resident and not in its µTLB, or a page event would have cleared
// kParked. Skipping keeps the one state change such a visit makes, a
// replay's waiting-to-reissue conversion.
bool GpuEngine::skip_parked(const BlockRt& block, std::uint32_t slot,
                            bool replayed) {
  WarpRt& warp = warps_[slot];
  const bool converts = replayed && (warp.park & kParkedWaiting) != 0;
  const bool reissues = converts || (warp.park & kParkedReissue) != 0;
  if (!utlbs_[warp.utlb].full() && (reissues || sm_tokens_[block.sm] > 0)) {
    return false;
  }
  if (converts) {
    std::uint8_t* const state = states_of(slot);
    const std::uint32_t size = kernel_->accesses_of(warp.group).size();
    for (std::uint32_t i = 0; i < size; ++i) {
      if (state[i] == kWaiting) state[i] = kReissue;
    }
    warp.park = static_cast<std::uint8_t>(
        (warp.park & ~kParkedWaiting) | kParkedReissue);
  }
  return true;
}

// Link every unfinished access of the warp's group under its page.
void GpuEngine::park(std::uint32_t slot, std::uint8_t bits) {
  WarpRt& warp = warps_[slot];
  const IndexRange accesses = kernel_->accesses_of(warp.group);
  const std::uint8_t* const state = states_of(slot);
  const std::uint32_t node = slot << state_shift_;
  for (std::uint32_t i = 0; i < accesses.size(); ++i) {
    if (state[i] == kDone) continue;
    const PageId page = kernel_->access(accesses.first + i).page + page_offset_;
    parked_.link(node + i, page);
    screens_[warp.utlb].add(page);
  }
  warp.park = static_cast<std::uint8_t>(kLinked | kParked | bits);
}

// Undo park(): the accesses it linked are still the unfinished ones, since
// a parked warp's states change only from waiting to reissue.
void GpuEngine::unpark(std::uint32_t slot) {
  WarpRt& warp = warps_[slot];
  const std::uint32_t size = kernel_->accesses_of(warp.group).size();
  const std::uint8_t* const state = states_of(slot);
  const std::uint32_t node = slot << state_shift_;
  for (std::uint32_t i = 0; i < size; ++i) {
    if (state[i] == kDone) continue;
    parked_.unlink(node + i);
    screens_[warp.utlb].remove();
  }
  warp.park = 0;
}

// `page` entered µTLB `utlb`, whose screen may hold it: the parked warps
// there that wait for it would join its entry.
void GpuEngine::wake_joiners(std::uint32_t utlb, PageId page) {
  parked_.for_each_node(page, [&](std::uint32_t node) {
    WarpRt& warp = warps_[node >> state_shift_];
    if (warp.utlb == utlb) warp.wake();
  });
}

// Wake the warps parked on a page the window's table holds resident.
void GpuEngine::wake_resident(ResidencyOracle::Table table) {
  parked_.for_each_node_if(
      [&](PageId page) { return resident_in(table, page); },
      [&](std::uint32_t node) { warps_[node >> state_shift_].wake(); });
}

void GpuEngine::unpark_all() {
  parked_.clear();
  for (WarpRt& warp : warps_) warp.park = 0;
  std::ranges::fill(screens_, Screen{});
}

GpuEngine::GenerateResult GpuEngine::generate(SimTime now,
                                              const ResidencyOracle& residency) {
  GenerateResult result;
  if (!kernel_) return result;

  std::fill(sm_arrival_cursor_.begin(), sm_arrival_cursor_.end(), 0ULL);
  const auto window = static_cast<std::uint32_t>(++window_seq_);
  const std::uint32_t warps_at_start = std::max(1u, active_warps_);
  // Residency is fixed within a window; an allocation between windows
  // may move the table, so read it here and nowhere later.
  const ResidencyOracle::Table table = residency.residency_table();
  if (!parked_.empty()) {
    if (table.misses_fault) {
      wake_resident(table);
    } else {
      unpark_all();
    }
  }
  // The first pass visits every live warp that is not parked; after a
  // replay it turns the waiting accesses it meets into reissues. Rescans
  // revisit warps this window already converted, and blocks scheduled
  // mid-window start fresh.
  bool replayed = replays_ != replays_at_window_;
  replays_at_window_ = replays_;

  while (true) {
    for (BlockRt& block : active_blocks_) {
      const std::uint32_t end = block.first_slot + block.num_warps;
      for (std::uint32_t slot = block.first_slot; slot < end; ++slot) {
        const WarpRt& warp = warps_[slot];
        if (warp.finished()) continue;
        // Only a rescan meets a warp settled this window; a parked warp
        // may be met in any pass. Either visit would change nothing but
        // the block's phase draw; make it.
        const bool parked = (warp.park & kParked) != 0;
        if (warp.settled_window == window ||
            (parked && skip_parked(block, slot, replayed))) {
          if (kernel_->compute_ns(warp.group) != 0) block_phase(block);
          continue;
        }
        advance_warp(block, slot, now, residency, table, replayed, result);
        if (warp.finished()) {
          --block.live_warps;
          --active_warps_;
        }
      }
    }

    // Retire completed blocks in one stable compaction pass, then
    // backfill from the grid queue; new blocks may be runnable
    // immediately, so rescan if any were scheduled.
    std::size_t kept = 0;
    for (std::size_t b = 0; b < active_blocks_.size(); ++b) {
      const BlockRt& block = active_blocks_[b];
      if (block.live_warps == 0) {
        --sm_active_blocks_[block.sm];
        ++blocks_retired_;
        free_blocks_.push_back(block.first_slot);
      } else {
        if (kept != b) active_blocks_[kept] = block;
        ++kept;
      }
    }
    if (kept == active_blocks_.size()) break;
    active_blocks_.erase(active_blocks_.begin() + kept, active_blocks_.end());
    if (next_block_ >= kernel_->num_blocks()) break;
    schedule_pending_blocks();
    replayed = false;
  }
  // A finished kernel's arena would only add to the run's peak memory,
  // which comes at its end, when the batch log is longest.
  if (all_done() && !warps_.empty()) {
    warps_ = std::vector<WarpRt>();
    states_ = std::vector<std::uint8_t>();
    parked_.reset(0);
  }

  // Storms re-walk entries this window just made outstanding, so the burst
  // lands after the warp advance (a replay clears the µTLBs, so at window
  // start there is nothing to re-report).
  emit_injected_storm(now, result);

  // The hardware buffer is written in arrival order; emission order above
  // interleaves SM streams, so restore timestamp order for the reader.
  buffer_.sort_pending();

  // Completed warp compute runs in parallel across warps; charge the
  // average serial share as the window's wall-clock contribution.
  result.compute_ns /= warps_at_start;
  return result;
}

void GpuEngine::emit_injected_storm(SimTime now, GenerateResult& result) {
  if (!injector_) return;
  const std::uint32_t budget = injector_->storm_faults();
  if (budget == 0) return;
  // Burst of spurious re-fault records for outstanding µTLB entries — the
  // GMMU re-walking entries it already reported. Sweep the µTLBs repeatedly
  // until the burst budget is spent so a small outstanding set can still
  // overflow the HW buffer.
  std::uint32_t emitted = 0;
  bool any = true;
  while (emitted < budget && any) {
    any = false;
    for (std::uint32_t t = 0; t < utlbs_.size() && emitted < budget; ++t) {
      for (const PageId page : utlbs_[t].outstanding()) {
        const std::uint32_t sm = t * config_.sms_per_utlb;
        emit_fault(page, AccessType::kRead, sm, /*block=*/0, now,
                   /*phase=*/0, /*duplicate=*/true, result);
        any = true;
        if (++emitted >= budget) break;
      }
    }
  }
  injector_->note_storm_emitted(emitted);
  if (tracer_ && emitted > 0) {
    tracer_->instant(tracks::kGpu, "fault_storm", now, {{"faults", emitted}});
  }
}

void GpuEngine::on_replay() {
  ++replays_;  // the next window's first pass reissues waiting accesses
  for (auto& tlb : utlbs_) tlb.clear();
  for (auto& tokens : sm_tokens_) {
    tokens = std::min(config_.sm_token_capacity,
                      tokens + config_.sm_tokens_per_replay);
  }
}

void GpuEngine::force_token_refill() {
  std::fill(sm_tokens_.begin(), sm_tokens_.end(), config_.sm_token_capacity);
}

void GpuEngine::full_reset() {
  buffer_.clear_wedged();
  buffer_.flush();
  force_token_refill();
  on_replay();  // clears µTLBs; waiting accesses reissue and re-fault
}

bool GpuEngine::all_done() const noexcept {
  return kernel_ && next_block_ == kernel_->num_blocks() &&
         active_blocks_.empty();
}

}  // namespace uvmsim
