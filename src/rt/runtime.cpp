#include "rt/runtime.hpp"

#include <chrono>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fiber/scheduler.hpp"
#include "rt/tracer.hpp"
#include "util/error.hpp"

namespace xp::rt {

namespace {

/// The paper's measurement environment: n threads on one processor under a
/// non-preemptive threads package with a single shared virtual clock.
/// Thread switches happen only at barriers (fibers block when waiting), so
/// the time between two consecutive events of one thread is exactly that
/// thread's computation — the invariant trace translation relies on.
class MeasureRuntime final : public Runtime {
 public:
  MeasureRuntime(int n_threads, HostMachine host, std::int64_t capacity_hint)
      : n_(n_threads),
        host_(host),
        host_clock_(host.clock_mode == HostMachine::ClockMode::HostClock),
        // Real instrumentation and switch costs are inherent in host-clock
        // mode; the modeled overheads apply only to the virtual clock (which
        // also keeps host-clock timestamps monotonic, as the tracer needs).
        tracer_(n_threads, host_clock_ ? Time::zero() : host.event_overhead,
                host_clock_ ? 0 : host.flush_every,
                host_clock_ ? Time::zero() : host.flush_cost, capacity_hint),
        barrier_count_(static_cast<std::size_t>(n_threads), 0) {
    XP_REQUIRE(n_ > 0, "need at least one thread");
    waiters_.reserve(static_cast<std::size_t>(n_ - 1));
    XP_REQUIRE(host_.mflops > 0, "MFLOPS rating must be positive");
  }

  trace::Trace run(Program& prog) {
    prog.setup(*this);
    wall0_ = std::chrono::steady_clock::now();
    for (int t = 0; t < n_; ++t) {
      sched_.spawn([this, &prog] {
        record_simple(trace::EventKind::ThreadBegin);
        prog.thread_main(*this);
        record_simple(trace::EventKind::ThreadEnd);
      });
    }
    sched_.run();
    XP_CHECK(arrived_ == 0, "program ended with unreleased barriers");
    tracer_.set_meta("program", prog.name());
    tracer_.set_meta("host", host_.name);
    tracer_.set_meta("mflops", std::to_string(host_.mflops));
    trace::Trace t = tracer_.take();
    t.validate();
    try {
      prog.verify();
    } catch (const std::exception& e) {
      // A bare mismatch message does not say which measurement of a sweep
      // failed; name the configuration.
      throw util::Error(prog.name() + " at n_threads=" + std::to_string(n_) +
                        ": verify failed: " + e.what());
    }
    return t;
  }

  std::int64_t events_recorded() const { return tracer_.events_recorded(); }

  int n_threads() const override { return n_; }

  int thread_id() const override {
    const int id = sched_.current();
    XP_REQUIRE(id >= 0, "thread_id() outside a parallel thread");
    return id;
  }

  void compute_flops(double flops) override {
    XP_REQUIRE(flops >= 0, "negative flop charge");
    // In host-clock mode the program's real computation IS the charge.
    if (!host_clock_) clock_ += Time::us(flops / host_.mflops);
  }

  void compute_time(Time t) override {
    XP_REQUIRE(!t.is_negative(), "negative time charge");
    if (!host_clock_) clock_ += t;
  }

  void barrier() override {
    sync_host_clock();
    const int t = thread_id();
    const std::int32_t id = barrier_count_[static_cast<std::size_t>(t)]++;
    trace::Event e;
    e.thread = t;
    e.kind = trace::EventKind::BarrierEntry;
    e.barrier_id = id;
    tracer_.record(&clock_, e);

    if (++arrived_ < n_) {
      waiters_.push_back(t);
      if (!host_clock_) clock_ += host_.switch_overhead;
      sched_.block();
      // Resumed by the last arriver; the shared clock has meanwhile been
      // advanced by whichever threads ran — exactly as on a real
      // uniprocessor.  The translator re-aligns these exits.
    } else {
      for (int w : waiters_) sched_.unblock(w);
      waiters_.clear();
      arrived_ = 0;
    }
    e.kind = trace::EventKind::BarrierExit;
    tracer_.record(&clock_, e);
  }

  void phase_begin(std::int64_t id) override { record_phase(id, true); }
  void phase_end(std::int64_t id) override { record_phase(id, false); }

  void pattern_begin(std::int32_t pattern_kind, std::int64_t region,
                     std::int32_t detail) override {
    record_pattern(trace::EventKind::PatternBegin, pattern_kind, region,
                   detail);
  }
  void pattern_end(std::int32_t pattern_kind, std::int64_t region) override {
    record_pattern(trace::EventKind::PatternEnd, pattern_kind, region, 0);
  }

  void on_remote_read(int owner, std::int64_t object,
                      std::int32_t declared_bytes,
                      std::int32_t actual_bytes) override {
    record_remote(trace::EventKind::RemoteRead, owner, object, declared_bytes,
                  actual_bytes);
  }

  void on_remote_write(int owner, std::int64_t object,
                       std::int32_t declared_bytes,
                       std::int32_t actual_bytes) override {
    record_remote(trace::EventKind::RemoteWrite, owner, object, declared_bytes,
                  actual_bytes);
  }

 private:
  /// Host-clock mode: timestamps are the real elapsed wall time since the
  /// threads started — the paper's actual Sun 4 measurement method.
  void sync_host_clock() {
    if (!host_clock_) return;
    clock_ = Time::ns(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - wall0_)
                          .count());
  }

  void record_simple(trace::EventKind k) {
    sync_host_clock();
    trace::Event e;
    e.thread = thread_id();
    e.kind = k;
    tracer_.record(&clock_, e);
  }

  void record_phase(std::int64_t id, bool begin) {
    sync_host_clock();
    trace::Event e;
    e.thread = thread_id();
    e.kind = begin ? trace::EventKind::PhaseBegin : trace::EventKind::PhaseEnd;
    e.object = id;
    tracer_.record(&clock_, e);
  }

  void record_pattern(trace::EventKind k, std::int32_t pattern_kind,
                      std::int64_t region, std::int32_t detail) {
    sync_host_clock();
    XP_REQUIRE(region >= 1, "pattern region id must be >= 1");
    XP_REQUIRE(pattern_kind >= 0, "pattern kind must be >= 0");
    XP_REQUIRE(detail >= 0, "pattern detail must be >= 0");
    trace::Event e;
    e.thread = thread_id();
    e.kind = k;
    e.barrier_id = pattern_kind;
    e.object = region;
    e.declared_bytes = detail;
    tracer_.record(&clock_, e);
  }

  void record_remote(trace::EventKind k, int owner, std::int64_t object,
                     std::int32_t declared_bytes, std::int32_t actual_bytes) {
    sync_host_clock();
    XP_REQUIRE(owner >= 0 && owner < n_, "remote peer out of range");
    trace::Event e;
    e.thread = thread_id();
    e.kind = k;
    e.peer = owner;
    e.object = object;
    e.declared_bytes = declared_bytes;
    e.actual_bytes = actual_bytes;
    tracer_.record(&clock_, e);
  }

  int n_;
  HostMachine host_;
  bool host_clock_;
  std::chrono::steady_clock::time_point wall0_;
  fiber::Scheduler sched_;
  Tracer tracer_;
  Time clock_;
  std::vector<std::int32_t> barrier_count_;
  // The barrier instance in flight.  There is at most one: no thread enters
  // barrier k+1 before all n have arrived at k, and the last arriver
  // releases k before it runs ahead.  The waiters, in arrival order (the
  // order they are woken), keep their storage across instances.
  int arrived_ = 0;
  std::vector<int> waiters_;
};

/// Event counts from completed measurements, keyed "program/n_threads".
/// Rerunning the same configuration (fitting takes repeated measurements;
/// sweeps re-measure per distinct thread count) seeds the tracer with the
/// previous run's count so its event log is reserved exactly once.
/// One mutex: a measurement touches the registry twice, a negligible share
/// of the measurement itself.
struct HintRegistry {
  std::mutex mu;
  std::unordered_map<std::string, std::int64_t> counts;

  static HintRegistry& instance() {
    static HintRegistry r;
    return r;
  }
};

std::string hint_key(const std::string& program, int n_threads) {
  return program + "/" + std::to_string(n_threads);
}

}  // namespace

std::int64_t measured_event_hint(const std::string& program, int n_threads) {
  const std::string key = hint_key(program, n_threads);
  HintRegistry& r = HintRegistry::instance();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.counts.find(key);
  return it != r.counts.end() ? it->second : 0;
}

trace::Trace measure(Program& prog, const MeasureOptions& opt) {
  const std::int64_t hint = measured_event_hint(prog.name(), opt.n_threads);
  MeasureRuntime rt(opt.n_threads, opt.host, hint);
  trace::Trace t = rt.run(prog);
  const std::string key = hint_key(prog.name(), opt.n_threads);
  HintRegistry& r = HintRegistry::instance();
  std::lock_guard<std::mutex> lock(r.mu);
  r.counts[key] = rt.events_recorded();
  return t;
}

}  // namespace xp::rt
