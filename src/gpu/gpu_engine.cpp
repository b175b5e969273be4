#include "gpu/gpu_engine.hpp"

#include <algorithm>

namespace uvmsim {

void GpuEngine::WarpRt::load_group() {
  if (!prog || group >= prog->groups.size()) {
    finished = true;
    state.clear();
    remaining = 0;
    return;
  }
  const auto& accesses = prog->groups[group].accesses;
  state.assign(accesses.size(), kPending);
  remaining = static_cast<std::uint32_t>(accesses.size());
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
  pending_blocks_.clear();
  active_blocks_.clear();
  for (std::uint32_t i = 0; i < kernel.blocks.size(); ++i) {
    pending_blocks_.push_back(i);
  }
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
  while (!pending_blocks_.empty()) {
    std::uint32_t best_sm = 0;
    std::uint32_t best_load = sm_active_blocks_[0];
    for (std::uint32_t sm = 1; sm < config_.num_sms; ++sm) {
      if (sm_active_blocks_[sm] < best_load) {
        best_load = sm_active_blocks_[sm];
        best_sm = sm;
      }
    }
    if (best_load >= config_.max_blocks_per_sm) break;

    const std::uint32_t block_id = pending_blocks_.front();
    pending_blocks_.pop_front();

    BlockRt rt;
    rt.prog = &kernel_->blocks[block_id];
    rt.block_id = block_id;
    rt.sm = best_sm;
    rt.warps.resize(rt.prog->warps.size());
    for (std::size_t w = 0; w < rt.warps.size(); ++w) {
      rt.warps[w].prog = &rt.prog->warps[w];
      rt.warps[w].load_group();
      if (!rt.warps[w].finished) ++rt.live_warps;
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

bool GpuEngine::advance_warp(BlockRt& block, WarpRt& warp, SimTime now,
                             const ResidencyOracle& residency,
                             GenerateResult& result) {
  bool progressed = false;
  // Zero-compute warps (dependence-free access microbenchmarks) never
  // de-synchronize: their faults arrive back-to-back at hardware rate.
  const bool zero_compute =
      !warp.finished && warp.prog->groups[warp.group].compute_ns == 0;
  const SimTime phase = zero_compute ? 0 : block_phase(block);
  while (!warp.finished) {
    const AccessGroup& group = warp.prog->groups[warp.group];
    UTlb& tlb = utlbs_[config_.utlb_of_sm(block.sm)];

    for (std::size_t i = 0; i < group.accesses.size(); ++i) {
      if (warp.state[i] != kPending && warp.state[i] != kReissue) continue;
      const bool is_reissue = warp.state[i] == kReissue;
      const PageAccess& access = group.accesses[i];
      const PageId page = access.page + page_offset_;
      const auto location = residency.classify(page);

      if (access.type == AccessType::kPrefetch) {
        // Fire-and-forget: no scoreboard, no µTLB entry, no throttle token,
        // and no retry if the driver drops it (Fig 5 semantics). Remote-
        // mapped pages are never prefetched (their advice pins them).
        if (location == ResidencyOracle::PageLocation::kFaultRequired) {
          emit_fault(page, access.type, block.sm, block.block_id, now, phase,
                     /*duplicate=*/false, result);
        }
        warp.state[i] = kDone;
        --warp.remaining;
        progressed = true;
        continue;
      }

      if (location == ResidencyOracle::PageLocation::kGpuResident) {
        warp.state[i] = kDone;
        --warp.remaining;
        progressed = true;
        continue;
      }

      if (location == ResidencyOracle::PageLocation::kRemoteMapped) {
        // The access completes over the interconnect without faulting:
        // no driver batch and no migration, but the request crosses PCIe
        // (charged at pipelined throughput by the simulator loop) and
        // bumps the page's MIMC access counter at µTLB resolution.
        warp.state[i] = kDone;
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
        warp.state[i] = kWaiting;
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
        warp.state[i] = kWaiting;
        progressed = true;
        continue;
      }
      // Blocked by the µTLB cap or the fault-rate throttle: stays pending.
    }

    if (warp.remaining != 0) break;  // scoreboard stall until replay

    // Group complete: charge its compute and move to the next group.
    result.compute_ns += group.compute_ns;
    ++warp.group;
    warp.load_group();
    progressed = true;
  }
  return progressed;
}

GpuEngine::GenerateResult GpuEngine::generate(SimTime now,
                                              const ResidencyOracle& residency) {
  GenerateResult result;
  if (!kernel_) return result;

  std::fill(sm_arrival_cursor_.begin(), sm_arrival_cursor_.end(), 0ULL);
  ++window_seq_;
  const std::uint32_t warps_at_start = std::max(1u, active_warps_);

  bool any_retired = true;
  while (any_retired) {
    any_retired = false;
    for (auto& block : active_blocks_) {
      for (auto& warp : block.warps) {
        if (warp.finished) continue;
        if (advance_warp(block, warp, now, residency, result)) {
          result.made_progress = true;
        }
        if (warp.finished) {
          --block.live_warps;
          --active_warps_;
        }
      }
    }

    // Retire completed blocks and backfill from the grid queue; new blocks
    // may be runnable immediately, so loop again if any were scheduled.
    const std::size_t before = active_blocks_.size();
    for (auto it = active_blocks_.begin(); it != active_blocks_.end();) {
      if (it->live_warps == 0) {
        --sm_active_blocks_[it->sm];
        ++blocks_retired_;
        it = active_blocks_.erase(it);
      } else {
        ++it;
      }
    }
    if (active_blocks_.size() != before && !pending_blocks_.empty()) {
      schedule_pending_blocks();
      any_retired = true;
    }
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
  ++replays_;
  for (auto& tlb : utlbs_) tlb.clear();
  for (auto& tokens : sm_tokens_) {
    tokens = std::min(config_.sm_token_capacity,
                      tokens + config_.sm_tokens_per_replay);
  }
  for (auto& block : active_blocks_) {
    for (auto& warp : block.warps) {
      for (auto& st : warp.state) {
        if (st == kWaiting) st = kReissue;
      }
    }
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
  return kernel_ && pending_blocks_.empty() && active_blocks_.empty();
}

}  // namespace uvmsim
