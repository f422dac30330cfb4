#include "core/simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "core/translate.hpp"

#include "model/barrier_model.hpp"
#include "model/processor_model.hpp"
#include "model/remote_model.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace xp::core {

namespace {

using trace::Event;
using trace::EventKind;

// Inline continuation for CPU activities and network deliveries; shares the
// engine's inline-callback capacity so nothing on the hot path allocates.
using Continuation = sim::Engine::Callback;

// One CPU-consuming activity queued on a processor.
struct CpuItem {
  Time duration;
  bool preemptible = false;  // only compute chunks, only under Interrupt
  Continuation done;
};

// A processor's CPU: strictly serial, FIFO, with preemption of compute
// chunks by interrupt-policy request service.
struct Cpu {
  bool busy = false;
  bool cur_preemptible = false;
  Time cur_end;
  sim::EventId cur_completion{};
  Continuation cur_done;
  std::deque<CpuItem> queue;
};

enum class TState { Start, Computing, WaitReply, WaitBarrier, Done };

struct Msg {
  enum class Kind { Request, Reply, BarArrive, BarRelease } kind;
  int from = -1;             // sending thread
  int to = -1;               // destination thread
  std::int32_t declared = 0;
  std::int32_t actual = 0;
  std::int32_t barrier_id = -1;
  bool is_write = false;
};

// Arrivals for barriers this thread has not entered yet.  The release
// protocol bounds how far ahead a child can run (it cannot reach barrier
// k+1 until k is globally released), so the number of distinct future
// barrier ids pending at one parent stays tiny; a fixed flat ring with a
// linear scan replaces the old std::map<int32_t,int> — allocation-free and
// branch-predictable.  A slot is free iff its count is zero.  If a trace's
// barrier-id scheme ever exceeds the ring (the old map was unbounded),
// excess ids spill to a vector instead of aborting; the ring stays the
// fast path and the spill is never touched under the release protocol.
struct EarlyArrivals {
  static constexpr int kSlots = 8;
  std::array<std::int32_t, kSlots> ids{};
  std::array<std::int32_t, kSlots> counts{};
  std::vector<std::pair<std::int32_t, int>> spill;

  void add(std::int32_t barrier_id) {
    for (int i = 0; i < kSlots; ++i)
      if (counts[i] > 0 && ids[i] == barrier_id) {
        ++counts[i];
        return;
      }
    // An id already in the spill must stay there (one counter per id),
    // even if a ring slot has freed up since it overflowed.
    for (auto& [id, count] : spill)
      if (id == barrier_id) {
        ++count;
        return;
      }
    for (int i = 0; i < kSlots; ++i)
      if (counts[i] == 0) {
        ids[i] = barrier_id;
        counts[i] = 1;
        return;
      }
    spill.emplace_back(barrier_id, 1);
  }

  bool empty() const {
    for (const std::int32_t c : counts)
      if (c > 0) return false;
    return spill.empty();
  }

  /// Claim (and clear) the arrivals recorded for `barrier_id`; 0 if none.
  int take(std::int32_t barrier_id) {
    for (int i = 0; i < kSlots; ++i)
      if (counts[i] > 0 && ids[i] == barrier_id) {
        const int c = counts[i];
        counts[i] = 0;
        return c;
      }
    for (auto it = spill.begin(); it != spill.end(); ++it)
      if (it->first == barrier_id) {
        const int c = it->second;
        spill.erase(it);
        return c;
      }
    return 0;
  }
};

struct ThreadCtx {
  int id = 0;
  int proc = 0;
  const CompiledThread* code = nullptr;

  // Replay cursors into the compiled arrays.
  std::uint32_t op = 0;
  std::uint32_t remote = 0;
  std::uint32_t barrier = 0;

  TState state = TState::Start;

  // True while the hybrid fast path is replaying one of this thread's
  // collapsed segments analytically (core/simulator.hpp, SimMode::Hybrid).
  // The classifier guarantees no message can target such a thread; a
  // delivery anyway means a misclassification and trips a loud check.
  bool fastforwarding = false;

  // Current barrier bookkeeping (message protocol).
  std::int32_t cur_barrier = -1;
  bool self_arrived = false;
  int children_arrived = 0;
  EarlyArrivals early_arrivals;  // arrivals for future barriers

  Time wait_start;

  // Requests queued while computing (NoInterrupt / Poll policies).
  std::deque<Msg> inbox;

  // Poll chunking of the current computation interval (buffer reused
  // across events).
  std::vector<Time> chunks;
  std::size_t chunk_idx = 0;

  ThreadStats stats;
};

struct AnalyticBarrier {
  std::vector<Time> arrival;
  int count = 0;
};

class Simulator {
 public:
  Simulator(const CompiledTrace& compiled, const SimParams& params,
            const SimOptions& opts)
      : params_(params),
        opts_(opts),
        compiled_(&compiled),
        n_(compiled.n_threads),
        n_procs_(model::effective_procs(params.proc, n_)),
        plan_(model::make_plan(params.barrier.alg, n_)),
        network_(engine_, params.comm, params.network, n_procs_) {
    params_.validate(n_);
    threads_.reserve(static_cast<std::size_t>(n_));
    for (int t = 0; t < n_; ++t) {
      auto ctx = std::make_unique<ThreadCtx>();
      ctx->id = t;
      ctx->proc = model::proc_of_thread(params.proc, t, n_);
      ctx->code = &compiled.threads[static_cast<std::size_t>(t)];
      threads_.push_back(std::move(ctx));
    }
    cpus_.resize(static_cast<std::size_t>(n_procs_));
    classify(compiled);
    // Barrier-epoch memoization (DESIGN.md §16): message barriers only
    // (analytic ones take the hybrid path), no trace to emit for replayed
    // windows, and the compile-time class table supplies the key.
    memo_on_ = opts_.mode != SimMode::EventDriven && !opts_.emit_trace &&
               use_messages() && compiled.epoch_classes.built();
    if (memo_on_)
      memo_.resize(
          static_cast<std::size_t>(compiled.epoch_classes.n_classes()));
  }

  SimResult run() {
    if (hyb_.path == HybridStats::Path::PureAnalytic) {
      // Representative-epoch sampling (SimMode::Auto, DESIGN.md §15): only
      // on the engine-free path, only without trace emission (every epoch
      // must be walked to emit its events), and only when the compile-time
      // epoch-class table exists (hand-built CompiledTrace instances may
      // predate it).  Dedup is bitwise-exact, so eligibility — not
      // correctness — is the only thing these conditions guard.
      if (opts_.mode == SimMode::Auto && !opts_.emit_trace &&
          compiled_->epoch_classes.built())
        run_analytic_sampled();
      else
        run_analytic();
    } else {
      for (auto& t : threads_) proceed(*t);
      engine_.run();
    }
    for (auto& t : threads_)
      XP_CHECK(t->state == TState::Done,
               "simulation ended with thread " + std::to_string(t->id) +
                   " not done (replay deadlock)");

    SimResult r;
    r.threads.reserve(threads_.size());
    for (auto& t : threads_) {
      r.makespan = util::max(r.makespan, t->stats.finish);
      r.threads.push_back(t->stats);
    }
    trace::Trace out(n_);
    out.set_meta("extrapolated", "1");
    for (const Event& e : out_events_) out.append(e);
    out.sort_by_time();
    r.extrapolated = std::move(out);
    r.messages = network_.messages_sent();
    r.bytes = network_.bytes_sent();
    r.avg_inflight = network_.load_samples().mean();
    r.engine_events = engine_.fired();
    r.hybrid = hyb_;
    r.sampling = samp_;
    return r;
  }

 private:
  // --- hybrid segment classifier (SimMode::Hybrid / Auto) -------------------
  //
  // A (epoch, thread) segment has a closed-form cost — and can skip the
  // event engine — iff nothing can interleave with the thread's own replay
  // during that epoch:
  //
  //   * every thread owns its processor (n_procs >= n_threads), so there is
  //     no CPU sharing between threads,
  //   * barriers resolve analytically (no barrier message traffic), with
  //     identical barrier sequences so epochs advance in lockstep,
  //   * the segment performs no cross-cluster remote access (it would block
  //     on request/reply messages whose latency depends on network state),
  //     and no other thread's same-epoch segment targets this thread as a
  //     cross-cluster owner (servicing the request would consume this CPU
  //     at a message-determined time — the contended-owner case of the
  //     per-owner access histogram).
  //
  // Same-processor accesses are free and intra-cluster accesses cost a
  // fixed latency + per-byte copy on the accessing CPU only, so both stay
  // inside the closed form.  The epoch granularity is sound because every
  // remote access issued in epoch e completes — including the owner-side
  // service — before barrier e releases: the accessor blocks on the reply
  // and cannot reach the barrier until it arrives.  Demotion marks BOTH
  // endpoints of a cross-cluster access for that epoch; everything else is
  // provably exact, which is why Hybrid is bitwise-identical to EventDriven.
  void classify(const CompiledTrace& compiled) {
    for (const CompiledThread& th : compiled.threads)
      hyb_.segments_total += static_cast<std::int64_t>(th.segments.size());
    if (opts_.mode == SimMode::EventDriven) return;
    if (n_procs_ < n_ || !compiled.uniform_barriers || use_messages()) {
      hyb_.segments_demoted = hyb_.segments_total;
      return;
    }
    epochs_ = static_cast<std::int64_t>(compiled.threads[0].segments.size());
    hyb_.epochs = epochs_;
    blocked_.assign(static_cast<std::size_t>(epochs_ * n_), 0);
    if (params_.cluster.procs_per_cluster < n_procs_) {
      // Multiple clusters: walk each segment's remote slice and demote both
      // endpoints of every cross-cluster access for that epoch.
      for (int t = 0; t < n_; ++t) {
        const CompiledThread& th = compiled.threads[static_cast<std::size_t>(t)];
        for (std::int64_t e = 0; e < epochs_; ++e) {
          const Segment& seg = th.segments[static_cast<std::size_t>(e)];
          for (std::uint32_t ri = seg.remote_begin; ri < seg.remote_end; ++ri) {
            const RemoteRec& rec = th.remotes[ri];
            if (rec.peer == t) continue;  // same processor: free, no traffic
            if (cluster_of(rec.peer) == cluster_of(t)) continue;
            blocked_[static_cast<std::size_t>(e * n_ + t)] = 1;
            blocked_[static_cast<std::size_t>(e * n_ + rec.peer)] = 1;
          }
        }
      }
    }
    for (const char b : blocked_) hyb_.segments_demoted += b;
    hyb_.segments_collapsed = hyb_.segments_total - hyb_.segments_demoted;
    if (hyb_.segments_collapsed == 0) return;  // nothing to gain: pure event
    hybrid_active_ = true;
    hyb_.path = hyb_.segments_demoted == 0 ? HybridStats::Path::PureAnalytic
                                           : HybridStats::Path::Mixed;
  }

  bool collapsible(const ThreadCtx& T) const {
    return !blocked_[static_cast<std::size_t>(
        static_cast<std::int64_t>(T.barrier) * n_ + T.id)];
  }

  // --- CPU management -----------------------------------------------------

  Cpu& cpu(int proc) { return cpus_[static_cast<std::size_t>(proc)]; }

  void cpu_enqueue(int proc, Time dur, bool preemptible, Continuation done,
                   bool front = false) {
    CpuItem item{dur, preemptible, std::move(done)};
    if (front)
      cpu(proc).queue.push_front(std::move(item));
    else
      cpu(proc).queue.push_back(std::move(item));
    cpu_pump(proc);
  }

  void cpu_pump(int proc) {
    Cpu& c = cpu(proc);
    if (c.busy || c.queue.empty()) return;
    CpuItem item = std::move(c.queue.front());
    c.queue.pop_front();
    c.busy = true;
    c.cur_preemptible = item.preemptible;
    c.cur_end = engine_.now() + item.duration;
    c.cur_done = std::move(item.done);
    c.cur_completion = engine_.schedule_after(item.duration, [this, proc] {
      Cpu& cc = cpu(proc);
      cc.busy = false;
      Continuation done = std::move(cc.cur_done);
      cc.cur_done = nullptr;
      if (done) done();
      cpu_pump(proc);
    });
  }

  /// Insert `dur`+`done` to run as soon as possible: preempts a running
  /// compute chunk (Interrupt policy), otherwise runs right after the
  /// current non-preemptible activity.
  void cpu_preempt_insert(int proc, Time dur, Continuation done) {
    Cpu& c = cpu(proc);
    if (c.busy && c.cur_preemptible) {
      const Time remaining = c.cur_end - engine_.now();
      XP_CHECK(!remaining.is_negative(), "CPU completion in the past");
      engine_.cancel(c.cur_completion);
      // Resume the interrupted chunk (with its original completion) after
      // the service finishes.
      c.queue.push_front(CpuItem{remaining, true, std::move(c.cur_done)});
      c.queue.push_front(CpuItem{dur, false, std::move(done)});
      c.busy = false;
      c.cur_done = nullptr;
      cpu_pump(proc);
    } else {
      cpu_enqueue(proc, dur, false, std::move(done), /*front=*/true);
    }
  }

  // --- compiled-trace replay ----------------------------------------------

  ThreadCtx& thr(int id) { return *threads_[static_cast<std::size_t>(id)]; }

  void proceed(ThreadCtx& T) {
    XP_CHECK(T.op < T.code->ops.size(), "replay ran past end of trace");
    if (hybrid_active_ &&
        T.op == T.code->segments[T.barrier].op_begin && collapsible(T)) {
      fast_forward(T);
      return;
    }
    const Time scaled =
        model::scale_compute(params_.proc, T.code->pre_delta[T.op]);
    start_compute(T, scaled);
  }

  // --- hybrid fast path -----------------------------------------------------

  /// Replay one collapsed segment analytically from `start`: advance the
  /// replay cursors, accumulate the same per-op stats the event path would,
  /// emit the intermediate protos at their computed times, and return the
  /// time at which the terminating Barrier/End op executes.  T.op is left AT
  /// the terminator; the caller handles it.  Mirrors start_compute/
  /// run_chunk/chunk_done/exec_op/begin_remote_access exactly — per-interval
  /// MipsRatio scaling (llround is not distributive over addition), poll
  /// boundaries at (scaled-1)/interval, intra-cluster costs on the accessing
  /// CPU.
  Time walk_segment(ThreadCtx& T, const Segment& seg, Time start) {
    const CompiledThread& code = *T.code;
    const bool polling = params_.proc.policy == model::ServicePolicy::Poll;
    const std::int64_t interval_ns = params_.proc.poll_interval.count_ns();
    const std::int64_t poll_ns = params_.proc.poll_overhead.count_ns();
    const bool presummable =
        params_.proc.mips_ratio == 1.0 && !polling && !opts_.emit_trace;
    if (presummable) {
      // The compile-time pre-summed records are exact here: scaling by 1.0
      // is the identity per interval, no poll boundaries split intervals,
      // and without trace emission nothing needs per-op times.  Costs
      // commute (integer addition) and the per-access intra-cluster cost is
      // an exact integer product (Time is integer ns), so the whole slice —
      // compute AND communication — reduces to O(1) arithmetic on the
      // segment's presums.  This is where the order-of-magnitude win at
      // n=10^5 comes from: no per-op dispatch, no per-record walk.
      T.stats.compute += seg.presum;
      Time now = start + seg.presum;
      T.stats.remote_accesses +=
          static_cast<std::int64_t>(seg.remote_end) - seg.remote_begin;
      if (seg.nonself_remotes > 0) {
        // Every non-self access in a collapsed segment is intra-cluster:
        // the contention pre-pass marks both endpoints of cross-cluster
        // remotes, so a blocked thread never reaches this path.
        const std::int64_t bytes_sum =
            params_.size_mode == model::TransferSizeMode::Declared
                ? seg.nonself_declared_bytes
                : seg.nonself_actual_bytes;
        const std::int64_t byte_ns =
            params_.cluster.intra_byte_time.count_ns();
        if (byte_ns == 0 ||
            bytes_sum <= (std::int64_t{1} << 53) / byte_ns) {
          T.stats.intra_cluster_accesses += seg.nonself_remotes;
          const Time cost =
              Time::ns(params_.cluster.intra_latency.count_ns() *
                           seg.nonself_remotes +
                       byte_ns * bytes_sum);
          T.stats.comm_wait += cost;
          now += cost;
        } else {
          // byte_ns * bytes could leave double's exact-integer range, where
          // llround stops distributing over the sum — charge per record,
          // exactly as the event path does.
          for (std::uint32_t r = seg.remote_begin; r < seg.remote_end; ++r) {
            const RemoteRec& rec = code.remotes[r];
            if (rec.peer == T.id) continue;
            XP_CHECK(cluster_of(rec.peer) == cluster_of(T.proc),
                     "hybrid misclassification: cross-cluster access in a "
                     "collapsed segment");
            ++T.stats.intra_cluster_accesses;
            const std::int64_t bytes = model::reply_payload_bytes(
                params_.size_mode, rec.declared_bytes, rec.actual_bytes);
            const Time cost = params_.cluster.intra_latency +
                              params_.cluster.intra_byte_time *
                                  static_cast<double>(bytes);
            T.stats.comm_wait += cost;
            now += cost;
          }
        }
      }
      T.remote = seg.remote_end;
      hyb_.ops_collapsed += seg.op_end - seg.op_begin;
      T.op = seg.op_end;
      return now;
    }
    Time now = start;
    for (std::uint32_t i = seg.op_begin;; ++i) {
      const Time scaled = model::scale_compute(params_.proc, code.pre_delta[i]);
      T.stats.compute += scaled;
      now += scaled;
      if (polling && interval_ns > 0 && scaled.count_ns() > 0) {
        const std::int64_t boundaries = (scaled.count_ns() - 1) / interval_ns;
        T.stats.polls += boundaries;
        T.stats.poll_time += Time::ns(poll_ns * boundaries);
        now += Time::ns(poll_ns * boundaries);
      }
      const OpKind k = code.ops[i];
      if (k == OpKind::Barrier || k == OpKind::End) {
        T.op = i;
        return now;
      }
      ++hyb_.ops_collapsed;
      switch (k) {
        case OpKind::Begin:
        case OpKind::Phase:
          emit_at(T, code.proto[i], now);
          break;
        case OpKind::Remote: {
          emit_at(T, code.proto[i], now);
          const RemoteRec& rec = code.remotes[T.remote++];
          ++T.stats.remote_accesses;
          if (rec.peer != T.id) {
            XP_CHECK(cluster_of(rec.peer) == cluster_of(T.proc),
                     "hybrid misclassification: cross-cluster access in a "
                     "collapsed segment");
            ++T.stats.intra_cluster_accesses;
            const std::int64_t bytes = model::reply_payload_bytes(
                params_.size_mode, rec.declared_bytes, rec.actual_bytes);
            const Time cost = params_.cluster.intra_latency +
                              params_.cluster.intra_byte_time *
                                  static_cast<double>(bytes);
            T.stats.comm_wait += cost;
            now += cost;
          }
          break;
        }
        default:
          break;
      }
    }
  }

  void fast_forward(ThreadCtx& T) {
    T.fastforwarding = true;
    T.state = TState::Computing;
    const Segment& seg = T.code->segments[T.barrier];
    const Time at = walk_segment(T, seg, engine_.now());
    const std::uint32_t i = T.op;
    if (T.code->ops[i] == OpKind::End) {
      ++hyb_.ops_collapsed;
      T.op = i + 1;
      T.fastforwarding = false;
      emit_at(T, T.code->proto[i], at);
      T.state = TState::Done;
      T.stats.finish = at;
      // The inbox is provably empty (no inbound traffic in a collapsed
      // segment), so the event path's drain at End has nothing to do.
      return;
    }
    // Terminating barrier: re-enter the engine exactly where event-driven
    // replay would have executed the Barrier op, then run the normal
    // barrier machinery so mixed epochs synchronize with event threads.
    engine_.schedule_at(at, [this, &T, i] {
      T.fastforwarding = false;
      T.op = i + 1;
      emit(T, T.code->proto[i]);
      begin_barrier(T, T.code->barrier_ids[T.barrier++]);
    });
  }

  /// The engine-free path: every segment of every thread collapsed, so the
  /// whole run is a per-epoch loop of analytic segment walks joined by the
  /// analytic barrier formula — the same arrival/release/exit values the
  /// event path computes, without scheduling a single event.  This is what
  /// makes n = 10^4..10^6 simulated processors feasible.
  void run_analytic() {
    const std::int64_t n_barriers = epochs_ - 1;
    std::vector<Time> cur(static_cast<std::size_t>(n_),  Time::zero());
    std::vector<Time> wait_start(static_cast<std::size_t>(n_), Time::zero());
    std::vector<Time> arrival(static_cast<std::size_t>(n_), Time::zero());
    for (std::int64_t e = 0; e < epochs_; ++e) {
      Time max_arrival;
      for (int t = 0; t < n_; ++t) {
        ThreadCtx& T = *threads_[static_cast<std::size_t>(t)];
        const Segment& seg = T.code->segments[static_cast<std::size_t>(e)];
        const Time at = walk_segment(T, seg, cur[static_cast<std::size_t>(t)]);
        const std::uint32_t i = T.op;
        ++hyb_.ops_collapsed;
        T.op = i + 1;
        emit_at(T, T.code->proto[i], at);
        if (e < n_barriers) {
          ++T.barrier;
          wait_start[static_cast<std::size_t>(t)] = at;
          // Arrival is the entry-time CPU activity's completion, exactly as
          // begin_barrier queues it before analytic_arrive records it.
          arrival[static_cast<std::size_t>(t)] =
              at + params_.barrier.entry_time;
          max_arrival = util::max(
              max_arrival, arrival[static_cast<std::size_t>(t)]);
        } else {
          T.state = TState::Done;
          T.stats.finish = at;
        }
      }
      if (e >= n_barriers) break;
      // analytic_arrive fires the releases when the last arrival lands
      // (engine clock == max arrival), clamping each exit to that instant.
      const std::vector<Time> release =
          model::analytic_release(params_.barrier, arrival);
      const std::int32_t id =
          threads_[0]->code->barrier_ids[static_cast<std::size_t>(e)];
      for (int t = 0; t < n_; ++t) {
        ThreadCtx& T = *threads_[static_cast<std::size_t>(t)];
        const Time exit_at =
            util::max(release[static_cast<std::size_t>(t)], max_arrival);
        Event exit;
        exit.kind = EventKind::BarrierExit;
        exit.barrier_id = id;
        emit_at(T, exit, exit_at);
        T.stats.barrier_wait +=
            exit_at - wait_start[static_cast<std::size_t>(t)];
        cur[static_cast<std::size_t>(t)] = exit_at;
      }
    }
  }

  // --- representative-epoch sampling (SimMode::Auto, DESIGN.md §15) --------
  //
  // Why Σ class_count × exemplar_advance is EXACT on the pure-analytic
  // path:
  //
  //   * walk_segment(T, seg, start) is start-translation-invariant — every
  //     step adds an increment that depends only on segment content and
  //     params (integer ns addition is exact), so a segment's advance and
  //     stat deltas are properties of its CONTENT, not its position;
  //   * model::analytic_release broadcasts ONE release instant to every
  //     thread and is itself translation-invariant, so after every analytic
  //     barrier all threads stand at the same uniform time — each epoch
  //     starts from offset zero;
  //   * therefore bit-identical epochs (EpochClassTable classes) have
  //     bit-identical advances and per-thread stat deltas, and the
  //     epoch-by-epoch sum reorders into per-class integer multiplies
  //     without changing a single bit.
  //
  // The full-trace prediction is composed as Σ_c count_c × advance_c over
  // the barrier epochs plus the final (End-terminated, always singleton)
  // epoch's walk; non-recurring warmup/teardown epochs are singleton
  // classes, i.e. replayed exactly.  Cost: O(classes) walks instead of
  // O(epochs) — the speedup is epochs/classes, ~300x for a 1000-iteration
  // Grid run.

  /// Scale a span or a count by an integer — exact (no llround), unlike
  /// Time::operator*(double).
  static Time times(Time t, std::int64_t k) {
    return Time::ns(t.count_ns() * k);
  }
  static std::int64_t times(std::int64_t v, std::int64_t k) { return v * k; }

  /// Call `f(a.x, b.x)` for every field x of ThreadStats.
  template <class F>
  static void zip_stats(ThreadStats& a, const ThreadStats& b, F f) {
    f(a.compute, b.compute);
    f(a.comm_wait, b.comm_wait);
    f(a.barrier_wait, b.barrier_wait);
    f(a.send_overhead, b.send_overhead);
    f(a.service_time, b.service_time);
    f(a.poll_time, b.poll_time);
    f(a.finish, b.finish);
    f(a.remote_accesses, b.remote_accesses);
    f(a.intra_cluster_accesses, b.intra_cluster_accesses);
    f(a.requests_served, b.requests_served);
    f(a.interrupts_taken, b.interrupts_taken);
    f(a.polls, b.polls);
  }

  /// Replace the delta `s − before` by `m` copies of it: the per-class
  /// stat composition.  barrier_wait and finish have a zero delta by
  /// construction — walk_segment never touches them.
  static void scale_stats_delta(ThreadStats& s, const ThreadStats& before,
                                std::int64_t m) {
    if (m == 1) return;
    zip_stats(s, before, [k = m - 1](auto& x, const auto& y) {
      x += times(x - y, k);
    });
  }

  /// Tolerance clustering test: can class `c` take its costs from class
  /// `rep`'s exemplar?  Requires identical structure (same op kinds and
  /// remote records — communication cost is then IDENTICAL, only compute
  /// intervals differ) and per-thread interval distance within the
  /// relative tolerance.  On success `slack_out` is the certified
  /// per-epoch advance error:
  ///
  ///   per thread, |walk(c) − walk(rep)| = |Σ scale(aᵢ) − Σ scale(bᵢ)|
  ///     <= ratio · Σ|aᵢ − bᵢ| + 1 ns per interval (one llround each;
  ///        exact — no rounding term — when MipsRatio == 1), and
  ///   the barrier release is max(arrivals) + constants: monotone and
  ///   translation-invariant, hence 1-Lipschitz in the sup norm, so the
  ///   epoch advance error is at most the worst per-thread walk error.
  bool try_cluster(const EpochClassTable& tab, std::int32_t rep,
                   std::int32_t c, double tol, Time& slack_out) const {
    const CompiledTrace& ct = *compiled_;
    const std::int64_t ea = tab.exemplar[static_cast<std::size_t>(rep)];
    const std::int64_t eb = tab.exemplar[static_cast<std::size_t>(c)];
    if (!epochs_same_shape(ct, ea, eb)) return false;
    const double ratio = params_.proc.mips_ratio;
    std::int64_t max_slack_ns = 0;
    for (int t = 0; t < n_; ++t) {
      const CompiledThread& th = ct.threads[static_cast<std::size_t>(t)];
      const Segment& sa = th.segments[static_cast<std::size_t>(ea)];
      const Segment& sb = th.segments[static_cast<std::size_t>(eb)];
      const std::uint32_t n_ops = sa.op_end - sa.op_begin;
      std::int64_t sum_abs = 0;
      for (std::uint32_t i = 0; i <= n_ops; ++i) {
        const std::int64_t d =
            th.pre_delta[sa.op_begin + i].count_ns() -
            th.pre_delta[sb.op_begin + i].count_ns();
        sum_abs += d < 0 ? -d : d;
      }
      const auto bigger =
          std::max(sa.presum.count_ns(), sb.presum.count_ns());
      if (static_cast<double>(sum_abs) > tol * static_cast<double>(bigger))
        return false;
      const std::int64_t slack =
          ratio == 1.0
              ? sum_abs
              : static_cast<std::int64_t>(
                    std::ceil(ratio * static_cast<double>(sum_abs))) +
                    (n_ops + 1);
      max_slack_ns = std::max(max_slack_ns, slack);
    }
    slack_out = Time::ns(max_slack_ns);
    return true;
  }

  void run_analytic_sampled() {
    const EpochClassTable& tab = compiled_->epoch_classes;
    const auto n_classes = static_cast<std::int32_t>(tab.n_classes());
    samp_.active = true;
    samp_.epochs = tab.epochs();
    samp_.classes = n_classes;
    // End-terminated, so never mergeable with a barrier epoch: always a
    // singleton class, walked last (it closes the threads out).
    const std::int32_t final_class = tab.class_of.back();

    // Tier 2: attach same-shape classes within the relative tolerance to
    // an earlier representative.  Excluded under Poll (see
    // SimOptions::epoch_tolerance) — poll-boundary counts jump, so the
    // Lipschitz bound above would not hold.
    const bool polling = params_.proc.policy == model::ServicePolicy::Poll;
    const double tol = polling ? 0.0 : opts_.epoch_tolerance;
    std::vector<std::int32_t> rep_of(static_cast<std::size_t>(n_classes));
    std::vector<Time> slack_of(static_cast<std::size_t>(n_classes));
    std::vector<std::int32_t> reps;
    reps.reserve(static_cast<std::size_t>(n_classes));
    for (std::int32_t c = 0; c < n_classes; ++c) {
      rep_of[static_cast<std::size_t>(c)] = c;
      if (tol > 0 && c != final_class) {
        for (const std::int32_t r : reps) {
          if (r == final_class) continue;
          Time slack;
          if (try_cluster(tab, r, c, tol, slack)) {
            rep_of[static_cast<std::size_t>(c)] = r;
            slack_of[static_cast<std::size_t>(c)] = slack;
            break;
          }
        }
      }
      if (rep_of[static_cast<std::size_t>(c)] == c) reps.push_back(c);
    }
    samp_.clusters = static_cast<std::int64_t>(reps.size());

    std::vector<std::int64_t> mult(static_cast<std::size_t>(n_classes), 0);
    for (std::int32_t c = 0; c < n_classes; ++c)
      mult[static_cast<std::size_t>(rep_of[static_cast<std::size_t>(c)])] +=
          tab.count[static_cast<std::size_t>(c)];

    // One exemplar walk per cluster, from time zero (walks are
    // translation-invariant, so position never matters).  `base`
    // accumulates Σ count × advance over the barrier epochs — the uniform
    // instant at which the final epoch starts.
    std::vector<Time> at(static_cast<std::size_t>(n_));
    std::vector<Time> arrival(static_cast<std::size_t>(n_));
    Time base;
    for (const std::int32_t r : reps) {
      if (r == final_class) continue;
      const auto e = static_cast<std::size_t>(
          tab.exemplar[static_cast<std::size_t>(r)]);
      const std::int64_t m = mult[static_cast<std::size_t>(r)];
      Time max_arrival;
      for (int t = 0; t < n_; ++t) {
        ThreadCtx& T = thr(t);
        const Segment& seg = T.code->segments[e];
        const ThreadStats before = T.stats;
        T.remote = seg.remote_begin;
        const Time w = walk_segment(T, seg, Time::zero());
        ++hyb_.ops_collapsed;  // the terminating Barrier op
        T.op = seg.op_end + 1;
        at[static_cast<std::size_t>(t)] = w;
        arrival[static_cast<std::size_t>(t)] =
            w + params_.barrier.entry_time;
        max_arrival =
            util::max(max_arrival, arrival[static_cast<std::size_t>(t)]);
        scale_stats_delta(T.stats, before, m);
      }
      const std::vector<Time> release =
          model::analytic_release(params_.barrier, arrival);
      const Time exit = util::max(release[0], max_arrival);
      for (int t = 1; t < n_; ++t)
        XP_CHECK(util::max(release[static_cast<std::size_t>(t)],
                           max_arrival) == exit,
                 "sampled composition needs uniform analytic barrier exits");
      for (int t = 0; t < n_; ++t)
        thr(t).stats.barrier_wait +=
            times(exit - at[static_cast<std::size_t>(t)], m);
      base += times(exit, m);
      ++samp_.epochs_simulated;
    }

    // Final epoch: exact replay (singleton class); closes every thread.
    {
      const auto e = static_cast<std::size_t>(
          tab.exemplar[static_cast<std::size_t>(final_class)]);
      for (int t = 0; t < n_; ++t) {
        ThreadCtx& T = thr(t);
        const Segment& seg = T.code->segments[e];
        T.remote = seg.remote_begin;
        const Time w = walk_segment(T, seg, Time::zero());
        ++hyb_.ops_collapsed;  // the End op
        T.op = seg.op_end + 1;
        T.state = TState::Done;
        T.stats.finish = base + w;
      }
      ++samp_.epochs_simulated;
    }

    for (std::int32_t c = 0; c < n_classes; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      if (rep_of[ci] != c)
        samp_.epochs_approximated += tab.count[ci];
      else if (tab.count[ci] == 1)
        ++samp_.epochs_replayed;
      samp_.error_bound += times(slack_of[ci], tab.count[ci]);
    }
  }

  void start_compute(ThreadCtx& T, Time scaled) {
    T.stats.compute += scaled;
    model::poll_chunks_into(params_.proc, scaled, T.chunks);
    T.chunk_idx = 0;
    if (T.chunks.empty()) {
      exec_op(T);
      return;
    }
    run_chunk(T);
  }

  void run_chunk(ThreadCtx& T) {
    T.state = TState::Computing;
    const Time len = T.chunks[T.chunk_idx];
    const bool preemptible =
        params_.proc.policy == model::ServicePolicy::Interrupt;
    cpu_enqueue(T.proc, len, preemptible, [this, &T] { chunk_done(T); });
  }

  void chunk_done(ThreadCtx& T) {
    ++T.chunk_idx;
    const bool last = T.chunk_idx >= T.chunks.size();
    if (last) {
      exec_op(T);
      return;
    }
    // Poll boundary: pay the poll check, service anything queued, continue.
    ++T.stats.polls;
    T.stats.poll_time += params_.proc.poll_overhead;
    cpu_enqueue(T.proc, params_.proc.poll_overhead, false, [this, &T] {
      drain_inbox(T);
      run_chunk(T);  // FIFO: the next chunk queues behind the services
    });
  }

  /// The enum-dispatched continuation after a compute interval: execute the
  /// op the interval led up to, advancing the replay cursors.
  void exec_op(ThreadCtx& T) {
    const CompiledThread& code = *T.code;
    const std::uint32_t i = T.op++;
    switch (code.ops[i]) {
      case OpKind::Begin:
      case OpKind::Phase:
        emit(T, code.proto[i]);
        proceed(T);
        break;
      case OpKind::End:
        emit(T, code.proto[i]);
        T.state = TState::Done;
        T.stats.finish = engine_.now();
        // A finished thread's processor keeps servicing remote requests
        // (§3.3.3); anything queued while it was computing drains now.
        drain_inbox(T);
        break;
      case OpKind::Remote:
        emit(T, code.proto[i]);
        begin_remote_access(T, code.remotes[T.remote++]);
        break;
      case OpKind::Barrier:
        emit(T, code.proto[i]);
        begin_barrier(T, code.barrier_ids[T.barrier++]);
        break;
    }
  }

  // --- remote data access (§3.3.2) ----------------------------------------

  int cluster_of(int proc) const {
    return proc / params_.cluster.procs_per_cluster;
  }

  void begin_remote_access(ThreadCtx& T, const RemoteRec& rec) {
    ++T.stats.remote_accesses;
    const ThreadCtx& owner = thr(rec.peer);
    if (owner.proc == T.proc) {
      // Same processor (multithreading extension): the element is in local
      // memory — free.
      proceed(T);
      return;
    }
    if (cluster_of(owner.proc) == cluster_of(T.proc)) {
      // Same cluster (§3.3.1 shared-memory clustering): a shared-memory
      // transfer on the accessing CPU — fixed latency plus the per-byte
      // copy; no messages, no owner involvement.
      ++T.stats.intra_cluster_accesses;
      const std::int64_t bytes = model::reply_payload_bytes(
          params_.size_mode, rec.declared_bytes, rec.actual_bytes);
      const Time cost = params_.cluster.intra_latency +
                        params_.cluster.intra_byte_time *
                            static_cast<double>(bytes);
      T.stats.comm_wait += cost;
      cpu_enqueue(T.proc, cost, false, [this, &T] { proceed(T); });
      return;
    }
    const Time send_cpu = net::send_cpu_time(params_.comm);
    T.stats.send_overhead += send_cpu;
    Msg req;
    req.kind = Msg::Kind::Request;
    req.from = T.id;
    req.to = rec.peer;
    req.declared = rec.declared_bytes;
    req.actual = rec.actual_bytes;
    req.is_write = rec.is_write;
    std::int64_t req_bytes = params_.comm.request_bytes;
    if (rec.is_write)
      // A write request carries the payload to the owner.
      req_bytes += model::reply_payload_bytes(params_.size_mode,
                                              rec.declared_bytes,
                                              rec.actual_bytes);
    cpu_enqueue(T.proc, send_cpu, false, [this, &T, req, req_bytes] {
      T.state = TState::WaitReply;
      T.wait_start = engine_.now();
      network_.send(T.proc, thr(req.to).proc, req_bytes,
                    [this, req] { deliver_request(req); });
      drain_inbox(T);
    });
  }

  void deliver_request(const Msg& req) {
    ThreadCtx& O = thr(req.to);
    XP_CHECK(!O.fastforwarding,
             "hybrid misclassification: request delivered to a thread in a "
             "collapsed segment");
    switch (O.state) {
      case TState::Computing:
        switch (params_.proc.policy) {
          case model::ServicePolicy::Interrupt: {
            ++O.stats.interrupts_taken;
            ++O.stats.requests_served;
            const Time cost = params_.proc.interrupt_overhead +
                              model::service_cpu_time(params_.comm, params_.proc);
            O.stats.service_time += cost;
            cpu_preempt_insert(O.proc, cost,
                               [this, req] { send_reply(req); });
            break;
          }
          case model::ServicePolicy::NoInterrupt:
          case model::ServicePolicy::Poll:
            O.inbox.push_back(req);
            break;
        }
        break;
      default:
        // Waiting (reply or barrier), starting, or done: serve now.  The
        // pC++ runtime keeps servicing remote requests even when its thread
        // sits in a barrier or has finished (§3.3.3).
        service_now(O, req);
        break;
    }
  }

  void service_now(ThreadCtx& O, const Msg& req) {
    const Time cost = model::service_cpu_time(params_.comm, params_.proc);
    O.stats.service_time += cost;
    ++O.stats.requests_served;
    cpu_enqueue(O.proc, cost, false, [this, req] { send_reply(req); });
  }

  void drain_inbox(ThreadCtx& T) {
    while (!T.inbox.empty()) {
      Msg req = T.inbox.front();
      T.inbox.pop_front();
      service_now(T, req);
    }
  }

  void send_reply(const Msg& req) {
    ThreadCtx& O = thr(req.to);  // owner (replier)
    Msg rep;
    rep.kind = Msg::Kind::Reply;
    rep.from = req.to;
    rep.to = req.from;
    std::int64_t bytes;
    if (req.is_write)
      // Acknowledgment only; the data travelled with the request.
      bytes = params_.comm.reply_header_bytes;
    else
      bytes = model::reply_message_bytes(params_.comm, params_.size_mode,
                                         req.declared, req.actual);
    network_.send(O.proc, thr(rep.to).proc, bytes,
                  [this, rep] { deliver_reply(rep); });
  }

  void deliver_reply(const Msg& rep) {
    ThreadCtx& T = thr(rep.to);
    XP_CHECK(T.state == TState::WaitReply,
             "reply delivered to a thread that is not waiting");
    cpu_enqueue(T.proc, params_.comm.recv_overhead, false, [this, &T] {
      T.stats.comm_wait += engine_.now() - T.wait_start;
      proceed(T);
    });
  }

  // --- barriers (§3.3.3) ---------------------------------------------------

  void begin_barrier(ThreadCtx& T, std::int32_t barrier_id) {
    T.cur_barrier = barrier_id;
    T.wait_start = engine_.now();
    cpu_enqueue(T.proc, params_.barrier.entry_time, false, [this, &T] {
      T.state = TState::WaitBarrier;
      if (use_messages()) {
        T.self_arrived = true;
        // Claim arrivals for this barrier that beat us here.
        T.children_arrived += T.early_arrivals.take(T.cur_barrier);
        check_barrier_forward(T);
      } else {
        analytic_arrive(T);
      }
      drain_inbox(T);
    });
  }

  bool use_messages() const {
    return params_.barrier.by_msgs &&
           params_.barrier.alg != model::BarrierAlg::Hardware;
  }

  void check_barrier_forward(ThreadCtx& T) {
    const auto& kids = plan_.children[static_cast<std::size_t>(T.id)];
    if (!T.self_arrived ||
        T.children_arrived < static_cast<int>(kids.size()))
      return;
    if (T.id == plan_.root) {
      if (memo_on_)
        at_barrier_point(T);
      else
        lower_barrier(T);
    } else {
      const Time send_cpu = net::send_cpu_time(params_.comm);
      T.stats.send_overhead += send_cpu;
      Msg up;
      up.kind = Msg::Kind::BarArrive;
      up.from = T.id;
      up.to = plan_.notify[static_cast<std::size_t>(T.id)];
      up.barrier_id = T.cur_barrier;
      cpu_enqueue(T.proc, send_cpu, false, [this, up] {
        network_.send(thr(up.from).proc, thr(up.to).proc,
                      params_.barrier.msg_size,
                      [this, up] { deliver_bar_arrive(up); });
      });
    }
  }

  /// The root has collected every arrival: start lowering the barrier.
  void lower_barrier(ThreadCtx& R) {
    // ModelTime: master's delay before it starts lowering the barrier.
    cpu_enqueue(R.proc, params_.barrier.model_time, false,
                [this, &R] { send_releases(R); });
  }

  void deliver_bar_arrive(const Msg& m) {
    ThreadCtx& P = thr(m.to);
    // Receiving + checking the arrival costs the parent CPU even if it is
    // still computing toward its own entry (message handling).
    const Time cost = params_.comm.recv_overhead + params_.barrier.check_time;
    P.stats.service_time += cost;
    cpu_preempt_insert(P.proc, cost, [this, &P, m] {
      if (P.state == TState::WaitBarrier && P.cur_barrier == m.barrier_id) {
        ++P.children_arrived;
        check_barrier_forward(P);
      } else {
        P.early_arrivals.add(m.barrier_id);
      }
    });
  }

  void send_releases(ThreadCtx& T) {
    // Send release messages to children, serialized on this CPU, then exit.
    const auto& kids = plan_.children[static_cast<std::size_t>(T.id)];
    std::size_t i = 0;
    send_next_release(T, kids, i);
  }

  void send_next_release(ThreadCtx& T, const std::vector<int>& kids,
                         std::size_t i) {
    if (i >= kids.size()) {
      cpu_enqueue(T.proc, params_.barrier.exit_time, false,
                  [this, &T] { barrier_exit_done(T); });
      return;
    }
    const int child = kids[i];
    const Time send_cpu = net::send_cpu_time(params_.comm);
    T.stats.send_overhead += send_cpu;
    Msg rel;
    rel.kind = Msg::Kind::BarRelease;
    rel.from = T.id;
    rel.to = child;
    rel.barrier_id = T.cur_barrier;
    cpu_enqueue(T.proc, send_cpu, false, [this, &T, &kids, i, rel] {
      network_.send(T.proc, thr(rel.to).proc, params_.barrier.msg_size,
                    [this, rel] { deliver_bar_release(rel); });
      send_next_release(T, kids, i + 1);
    });
  }

  void deliver_bar_release(const Msg& m) {
    ThreadCtx& T = thr(m.to);
    XP_CHECK(T.state == TState::WaitBarrier && T.cur_barrier == m.barrier_id,
             "barrier release delivered to a thread not waiting on it");
    const Time cost = params_.comm.recv_overhead +
                      params_.barrier.exit_check_time;
    cpu_enqueue(T.proc, cost, false, [this, &T] {
      // Propagate the release down the tree (linear plan has no
      // grandchildren; LogTree does), then leave.
      send_releases(T);
    });
  }

  void barrier_exit_done(ThreadCtx& T) {
    Event exit;
    exit.thread = T.id;
    exit.kind = EventKind::BarrierExit;
    exit.barrier_id = T.cur_barrier;
    emit(T, exit);
    T.stats.barrier_wait += engine_.now() - T.wait_start;
    T.self_arrived = false;
    T.children_arrived = 0;
    T.cur_barrier = -1;
    proceed(T);
  }

  void analytic_arrive(ThreadCtx& T) {
    AnalyticBarrier& b = analytic_[T.cur_barrier];
    if (b.arrival.empty())
      b.arrival.assign(static_cast<std::size_t>(n_), Time::zero());
    b.arrival[static_cast<std::size_t>(T.id)] = engine_.now();
    if (++b.count < n_) return;
    const std::vector<Time> release =
        model::analytic_release(params_.barrier, b.arrival);
    const std::int32_t id = T.cur_barrier;
    for (int t = 0; t < n_; ++t) {
      const Time at = util::max(release[static_cast<std::size_t>(t)],
                                engine_.now());
      engine_.schedule_at(at, [this, t, id] {
        ThreadCtx& W = thr(t);
        XP_CHECK(W.state == TState::WaitBarrier && W.cur_barrier == id,
                 "analytic release for a thread not in the barrier");
        barrier_exit_done(W);
      });
    }
    analytic_.erase(id);
  }

  // --- barrier-epoch memoization (message barriers, DESIGN.md §16) ----------
  //
  // A barrier point Q_b is the instant the root absorbs barrier b's last
  // arrival, just before it starts lowering the barrier.  If at Q_b no
  // engine event is pending, no message is in flight, every CPU is idle
  // with an empty queue, and every thread waits in barrier b with an empty
  // inbox and no early arrivals, then nothing from before Q_b can act
  // after it.  The run from Q_b to Q_{b+1} is then a time-translated
  // function of the content of epoch b+1 alone: every duration (scaled
  // compute, poll chunks measured from compute start, preemption remainder,
  // contention from the in-flight count, which starts at zero) depends on
  // relative times only, and with an empty queue the engine's tie order is
  // the scheduling order of the window itself.  Epochs in one
  // EpochClassTable class have bit-identical content, so the class id of
  // epoch b+1 is an exact key.
  //
  // The first window of a class runs through the engine and is recorded:
  // the advance Q_{b+1} − Q_b, every thread's ThreadStats delta, the
  // message and byte counts and the ordered load samples of its
  // injections.  Later windows of the class add those deltas instead.
  // barrier_wait is split at every quiescent point (wait_start moves to Q)
  // so a window's delta does not depend on the window before it; the split
  // is exact in integer nanoseconds.

  /// Recorded effect of one barrier-to-barrier window.
  struct MemoWindow {
    bool recorded = false;
    Time advance;
    std::vector<ThreadStats> delta;  ///< per thread
    std::int64_t messages = 0;
    std::int64_t bytes = 0;
    std::vector<std::int32_t> samples;  ///< load samples, injection order
  };

  bool quiescent(const ThreadCtx& R) const {
    if (engine_.pending() != 0 || network_.inflight() != 0) return false;
    for (const Cpu& c : cpus_)
      if (c.busy || !c.queue.empty()) return false;
    for (const auto& t : threads_) {
      const auto kids = plan_.children[static_cast<std::size_t>(t->id)].size();
      if (t->state != TState::WaitBarrier || t->barrier != R.barrier ||
          t->cur_barrier != R.cur_barrier || !t->self_arrived ||
          t->children_arrived != static_cast<int>(kids) ||
          !t->inbox.empty() || !t->early_arrivals.empty())
        return false;
    }
    return true;
  }

  /// The root is at barrier point Q: close the window recorded since the
  /// previous point, replay every following window whose class is already
  /// recorded, and lower the barrier at the point reached.
  void at_barrier_point(ThreadCtx& R) {
    if (!quiescent(R)) {
      stop_recording();  // this window ends in a state no key describes
      lower_barrier(R);
      return;
    }
    const Time q0 = engine_.now();
    for (auto& t : threads_) {
      t->stats.barrier_wait += q0 - t->wait_start;
      t->wait_start = q0;
    }
    if (rec_cls_ >= 0) finish_recording(q0);

    const EpochClassTable& tab = compiled_->epoch_classes;
    const auto n_barriers = R.code->barrier_ids.size();
    const std::size_t b0 = R.barrier - 1;  // the barrier being lowered
    std::size_t b = b0;                    // ... after the replayed windows
    Time q = q0;
    for (; b + 1 < n_barriers; ++b) {
      const MemoWindow& w =
          memo_[static_cast<std::size_t>(tab.class_of[b + 1])];
      if (!w.recorded) break;
      for (auto& t : threads_)
        zip_stats(t->stats, w.delta[static_cast<std::size_t>(t->id)],
                  [](auto& x, const auto& d) { x += d; });
      network_.replay(w.messages, w.bytes, w.samples);
      q += w.advance;
      ++hyb_.memo_hits;
    }
    if (b + 1 < n_barriers) {
      ++hyb_.memo_misses;
      const std::int32_t c = tab.class_of[b + 1];
      // A class that never recurs is not worth recording.
      if (tab.count[static_cast<std::size_t>(c)] > 1) start_recording(c, q);
    }
    if (b == b0) {
      lower_barrier(R);
      return;
    }
    // Move every thread to barrier point Q_b: the state the skipped windows
    // would have left behind (all other fields repeat at every point).
    for (auto& t : threads_) {
      const Segment& seg = t->code->segments[b];
      t->op = seg.op_end + 1;
      t->remote = seg.remote_end;
      t->barrier = static_cast<std::uint32_t>(b + 1);
      t->cur_barrier = t->code->barrier_ids[b];
      t->wait_start = q;
    }
    engine_.schedule_at(q, [this, &R] { lower_barrier(R); });
  }

  void start_recording(std::int32_t cls, Time q) {
    rec_cls_ = cls;
    rec_start_ = q;
    rec_base_.clear();
    for (const auto& t : threads_) rec_base_.push_back(t->stats);
    rec_messages_ = network_.messages_sent();
    rec_bytes_ = network_.bytes_sent();
    rec_samples_.clear();
    network_.log_samples(&rec_samples_);
  }

  void finish_recording(Time q) {
    MemoWindow& w = memo_[static_cast<std::size_t>(rec_cls_)];
    w.recorded = true;
    w.advance = q - rec_start_;
    // Deltas in place, then exact-size copies: the recording buffers keep
    // their capacity for the next window.
    for (const auto& t : threads_)
      zip_stats(rec_base_[static_cast<std::size_t>(t->id)], t->stats,
                [](auto& base, const auto& now) { base = now - base; });
    w.delta = rec_base_;
    w.messages = network_.messages_sent() - rec_messages_;
    w.bytes = network_.bytes_sent() - rec_bytes_;
    w.samples = rec_samples_;
    stop_recording();
  }

  void stop_recording() {
    rec_cls_ = -1;
    network_.log_samples(nullptr);
  }

  // --- output ---------------------------------------------------------------

  void emit(ThreadCtx& T, const Event& e) { emit_at(T, e, engine_.now()); }

  // By reference so the no-trace configurations (sweeps, serve, huge-n
  // hybrid runs) skip the Event copy entirely — it is measurable per-op.
  void emit_at(ThreadCtx& T, const Event& e, Time at) {
    if (!opts_.emit_trace) return;
    Event out = e;
    out.time = at;
    out.thread = T.id;
    out_events_.push_back(out);
  }

  SimParams params_;
  SimOptions opts_;
  const CompiledTrace* compiled_;
  int n_;
  int n_procs_;
  model::BarrierPlan plan_;
  sim::Engine engine_;
  net::Network network_;
  std::vector<std::unique_ptr<ThreadCtx>> threads_;
  std::vector<Cpu> cpus_;
  std::map<std::int32_t, AnalyticBarrier> analytic_;
  std::vector<Event> out_events_;

  // Hybrid-mode state (classify()).
  bool hybrid_active_ = false;
  std::int64_t epochs_ = 0;
  std::vector<char> blocked_;  ///< epochs_ x n_: segment demoted to events
  HybridStats hyb_;
  SamplingStats samp_;

  // Barrier-epoch memo state (at_barrier_point()).
  bool memo_on_ = false;
  std::vector<MemoWindow> memo_;  ///< by epoch class
  std::int32_t rec_cls_ = -1;     ///< class being recorded; -1 = none
  Time rec_start_;
  std::vector<ThreadStats> rec_base_;
  std::int64_t rec_messages_ = 0;
  std::int64_t rec_bytes_ = 0;
  std::vector<std::int32_t> rec_samples_;
};

}  // namespace

Time SimResult::total_compute() const {
  Time t;
  for (const auto& s : threads) t += s.compute;
  return t;
}

Time SimResult::total_comm_wait() const {
  Time t;
  for (const auto& s : threads) t += s.comm_wait;
  return t;
}

Time SimResult::total_barrier_wait() const {
  Time t;
  for (const auto& s : threads) t += s.barrier_wait;
  return t;
}

const char* to_string(SimMode m) {
  switch (m) {
    case SimMode::EventDriven: return "event";
    case SimMode::Hybrid: return "hybrid";
    case SimMode::Auto: return "auto";
  }
  return "?";
}

SimResult simulate(const std::vector<trace::Trace>& translated,
                   const SimParams& params) {
  return simulate(translated, params, SimOptions{});
}

SimResult simulate(const std::vector<trace::Trace>& translated,
                   const SimParams& params, const SimOptions& opts) {
  XP_REQUIRE(!translated.empty(), "no translated traces");
  return simulate_compiled(CompiledTrace::compile(translated), params, opts);
}

SimResult simulate_compiled(const CompiledTrace& compiled,
                            const SimParams& params) {
  return simulate_compiled(compiled, params, SimOptions{});
}

SimResult simulate_compiled(const CompiledTrace& compiled,
                            const SimParams& params, const SimOptions& opts) {
  XP_REQUIRE(compiled.n_threads >= 1, "no translated traces");
  Simulator sim(compiled, params, opts);
  return sim.run();
}

}  // namespace xp::core
