#include "replay.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {

using namespace uvmsim;

/// Adds the host seconds of its scope to `acc`.
class Span {
 public:
  explicit Span(double& acc) : acc_(acc) {}
  ~Span() { acc_ += seconds_since(t0_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& acc_;
  Clock::time_point t0_ = Clock::now();
};

/// Forwards every residency query to the driver and counts it.
class CountingOracle final : public ResidencyOracle {
 public:
  CountingOracle(const UvmDriver& driver, LayerTimes& times)
      : driver_(driver), times_(times) {}

  bool is_resident_on_gpu(PageId page) const override {
    ++times_.classify_calls;
    return driver_.is_resident_on_gpu(page);
  }
  PageLocation classify(PageId page) const override {
    ++times_.classify_calls;
    return driver_.classify(page);
  }
  bool all_gpu_resident(PageId base, const std::uint64_t* bits,
                        std::size_t words) const override {
    ++times_.bulk_probe_calls;
    return driver_.all_gpu_resident(base, bits, words);
  }

 private:
  const UvmDriver& driver_;
  LayerTimes& times_;
};

}  // namespace

ReplayResult traced_replay(const SystemConfig& config,
                           const WorkloadSpec& spec) {
  ReplayResult out;
  LayerTimes& t = out.times;
  FaultInjector injector(config.driver.inject);
  UvmDriver driver(config.driver, config.gpu.memory_bytes, config.gpu.num_sms,
                   config.pcie, &injector);
  GpuEngine gpu(config.gpu, config.seed);
  gpu.set_fault_injector(&injector);
  const CountingOracle oracle(driver, t);
  FaultBuffer& buffer = gpu.fault_buffer();
  const SimTime wakeup_ns = driver.pcie().config().interrupt_latency_ns +
                            driver.config().wakeup_ns;
  const std::uint64_t max_batches =
      1'000'000 + 16 * spec.kernel.total_accesses();

  const Clock::time_point start = Clock::now();
  SimTime now = 0;
  const PageId base_page = driver.va_space().total_pages();
  for (const auto& alloc : spec.allocs) {
    Span span(t.managed_alloc_s);
    driver.managed_alloc(alloc.bytes, alloc.name, alloc.init, alloc.advise);
  }

  const auto gpu_window = [&] {
    GpuEngine::GenerateResult g;
    {
      Span span(t.generate_s);
      g = gpu.generate(now, oracle);
    }
    ++t.generate_calls;
    now += g.compute_ns +
           g.remote_requests * config.gpu.remote_request_pipelined_ns;
  };
  const auto replay = [&] {
    Span span(t.replay_s);
    gpu.on_replay();
  };

  // Launch event.
  std::uint64_t dropped_seen = buffer.total_dropped_full();
  out.events = 1;
  gpu.launch(spec.kernel, base_page);
  gpu_window();
  std::uint64_t batches = 0;
  for (;;) {
    if (buffer.empty()) {
      if (gpu.all_done()) break;  // kernel complete
      // Forced throttle-refill event.
      ++out.events;
      gpu.force_token_refill();
      replay();
      gpu_window();
      if (buffer.empty() && !gpu.all_done()) {
        throw std::logic_error("perfbench: replayed fault generation wedged");
      }
      continue;
    }
    // Interrupt event for the earliest pending fault, then the service
    // event it posts.
    now = std::max(now, *buffer.next_arrival()) + wakeup_ns;
    out.events += 2;
    for (;;) {
      std::vector<FaultRecord> raw;
      {
        Span span(t.fault_buffer_s);
        raw = buffer.drain_arrived(driver.effective_batch_size(), now);
      }
      if (raw.empty()) break;  // the worker sleeps until the next interrupt
      const std::uint64_t dropped_now = buffer.total_dropped_full();
      const Clock::time_point b0 = Clock::now();
      const BatchRecord& record = driver.handle_batch(
          raw, now, static_cast<std::uint32_t>(dropped_now - dropped_seen));
      const double batch_s = seconds_since(b0);
      t.handle_batch_s += batch_s;
      t.handle_batch_us.push_back(batch_s * 1e6);
      dropped_seen = dropped_now;
      now = std::max(now, record.end_ns);
      if (driver.config().flush_on_replay) {
        Span span(t.fault_buffer_s);
        buffer.flush_arrived(now);
      }
      replay();
      gpu_window();
      if (++batches > max_batches) {
        throw std::logic_error("perfbench: replay batch guard exceeded");
      }
      ++out.events;  // the next service event
    }
  }
  t.total_s = seconds_since(start);

  RunResult& r = out.run;
  r.log = driver.log();
  r.kernel_time_ns = now;
  for (const auto& rec : r.log) r.batch_time_ns += rec.duration_ns();
  r.total_faults = gpu.total_faults_emitted();
  r.duplicate_emissions = gpu.total_duplicate_emissions();
  r.replays = gpu.replays_seen();
  r.evictions = driver.total_evictions();
  r.bytes_h2d = driver.copy_engine().bytes_to_device();
  r.bytes_d2h = driver.copy_engine().bytes_to_host();
  return out;
}

}  // namespace perfbench
