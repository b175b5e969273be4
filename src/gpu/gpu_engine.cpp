#include "gpu/gpu_engine.hpp"

#include <algorithm>

namespace uvmsim {

void GpuEngine::WarpRt::load_group(const KernelDesc& kernel) {
  if (finished()) {
    state.clear();
    remaining = 0;
    return;
  }
  remaining = kernel.accesses_of(group).size();
  state.assign(remaining, kPending);
}

GpuEngine::GpuEngine(const GpuConfig& config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      buffer_(config.fault_buffer_entries),
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
  active_warps_ = 0;
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
    const IndexRange warps = kernel_->warps_of(rt.block_id);
    rt.warps.resize(warps.size());
    for (std::uint32_t w = 0; w < warps.size(); ++w) {
      WarpRt& warp = rt.warps[w];
      const IndexRange groups = kernel_->groups_of(warps.first + w);
      warp.group = groups.first;
      warp.group_end = groups.last;
      warp.load_group(*kernel_);
      if (!warp.finished()) ++rt.live_warps;
    }
    active_warps_ += rt.live_warps;
    ++sm_active_blocks_[best_sm];
    active_blocks_.push_back(std::move(rt));
  }
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
  const VaBlockId b = va_block_of(page);
  if (b < table.count && table.blocks[b].test(page_index_in_block(page))) {
    return ResidencyOracle::PageLocation::kGpuResident;
  }
  if (table.misses_fault) return ResidencyOracle::PageLocation::kFaultRequired;
  ++oracle_probes_;
  return residency.classify(page);
}

void GpuEngine::advance_warp(BlockRt& block, WarpRt& warp, SimTime now,
                             const ResidencyOracle& residency,
                             ResidencyOracle::Table table, bool replayed,
                             GenerateResult& result) {
  ++visits_;
  bool progressed = false;
  // Zero-compute warps (dependence-free access microbenchmarks) never
  // de-synchronize: their faults arrive back-to-back at hardware rate.
  const bool zero_compute = kernel_->compute_ns(warp.group) == 0;
  const SimTime phase = zero_compute ? 0 : block_phase(block);
  UTlb& tlb = utlbs_[config_.utlb_of_sm(block.sm)];
  while (!warp.finished()) {
    const IndexRange accesses = kernel_->accesses_of(warp.group);
    bool blocked = false;

    for (std::uint32_t i = 0; i < accesses.size(); ++i) {
      std::uint8_t& st = warp.state[i];
      if (st == kDone) continue;
      if (st == kWaiting) {
        if (!replayed) continue;
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
    warp.load_group(*kernel_);
    progressed = true;
  }
  if (!progressed) ++idle_visits_;
}

GpuEngine::GenerateResult GpuEngine::generate(SimTime now,
                                              const ResidencyOracle& residency) {
  GenerateResult result;
  if (!kernel_) return result;

  std::fill(sm_arrival_cursor_.begin(), sm_arrival_cursor_.end(), 0ULL);
  const auto window = static_cast<std::uint32_t>(++window_seq_);
  const std::uint32_t warps_at_start = std::max(1u, active_warps_);
  const std::uint64_t visits_before = visits_;
  const std::uint64_t idle_before = idle_visits_;
  const std::uint64_t probes_before = probes_;
  const std::uint64_t oracle_before = oracle_probes_;
  // Residency is fixed within a window; an allocation between windows
  // may move the table, so read it here and nowhere later.
  const ResidencyOracle::Table table = residency.residency_table();
  // The first pass visits every live warp; after a replay it turns the
  // waiting accesses it meets into reissues. Rescans revisit warps this
  // window already converted, and blocks scheduled mid-window start fresh.
  bool replayed = replays_ != replays_at_window_;
  replays_at_window_ = replays_;

  while (true) {
    for (auto& block : active_blocks_) {
      for (auto& warp : block.warps) {
        if (warp.finished()) continue;
        if (warp.settled_window == window) {
          // Only a rescan meets a warp settled this window. Its visit
          // would change nothing but the block's phase draw; make it.
          if (kernel_->compute_ns(warp.group) != 0) block_phase(block);
          continue;
        }
        advance_warp(block, warp, now, residency, table, replayed, result);
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
      BlockRt& block = active_blocks_[b];
      if (block.live_warps == 0) {
        --sm_active_blocks_[block.sm];
        ++blocks_retired_;
      } else {
        if (kept != b) active_blocks_[kept] = std::move(block);
        ++kept;
      }
    }
    if (kept == active_blocks_.size()) break;
    active_blocks_.erase(active_blocks_.begin() + kept, active_blocks_.end());
    if (next_block_ >= kernel_->num_blocks()) break;
    schedule_pending_blocks();
    replayed = false;
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
  if (obs_.metrics) {
    obs_.metrics->add("gpu.faults_emitted", result.faults_pushed);
    obs_.metrics->add("gpu.duplicate_emissions", result.duplicate_pushes);
    obs_.metrics->add("gpu.remote_accesses", result.remote_requests);
    obs_.metrics->add("gpu.warp_visits", visits_ - visits_before);
    obs_.metrics->add("gpu.idle_warp_visits", idle_visits_ - idle_before);
    obs_.metrics->add("gpu.residency_probes", probes_ - probes_before);
    obs_.metrics->add("gpu.oracle_probes", oracle_probes_ - oracle_before);
    obs_.metrics->set_gauge("gpu.active_warps", active_warps_);
    obs_.metrics->set_gauge("gpu.blocks_retired", blocks_retired_);
  }
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
  if (obs_.metrics && emitted > 0) {
    obs_.metrics->add("gpu.storm_faults_emitted", emitted);
  }
  if (obs_.tracer && emitted > 0) {
    obs_.tracer->instant(tracks::kGpu, "fault_storm", now,
                         {{"faults", emitted}});
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
