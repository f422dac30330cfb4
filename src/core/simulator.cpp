#include "core/simulator.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "core/translate.hpp"

#include "model/barrier_model.hpp"
#include "model/processor_model.hpp"
#include "model/remote_model.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"
#include "util/once_cell.hpp"
#include "util/parallel.hpp"

namespace xp::core {

namespace {

using trace::Event;
using trace::EventKind;

// Inline continuation for CPU activities and network deliveries; shares the
// engine's inline-callback capacity so nothing on the hot path allocates.
using Continuation = sim::Engine::Callback;

// A queue on one vector used as a ring: push at either end, pop at the
// front.  Nothing is allocated until something waits, and the ring only
// doubles, so a queue that stays short allocates once per run.
template <class T>
class Fifo {
 public:
  bool empty() const { return size_ == 0; }
  T& front() { return ring_[head_]; }
  void pop_front() {
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
  }
  void push_back(T&& v) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & (ring_.size() - 1)] = std::move(v);
    ++size_;
  }
  void push_front(T&& v) {
    if (size_ == ring_.size()) grow();
    head_ = (head_ + ring_.size() - 1) & (ring_.size() - 1);
    ring_[head_] = std::move(v);
    ++size_;
  }

 private:
  void grow() {
    std::vector<T> bigger(std::max<std::size_t>(4, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> ring_;  ///< size zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

// One CPU-consuming activity queued on a processor.
struct CpuItem {
  Time duration;
  bool preemptible = false;  // only compute chunks, only under Interrupt
  Continuation done;
};

// A processor's CPU: strictly serial, FIFO, with preemption of compute
// chunks by interrupt-policy request service.  Under Poll in Auto, the
// current activity may be a held compute interval (Simulator::hold).
struct Cpu {
  bool busy = false;
  bool cur_preemptible = false;
  Time cur_end;
  sim::EventId cur_completion{};
  Continuation cur_done;
  Fifo<CpuItem> queue;
  std::int32_t held = -1;  ///< Simulator::runs_ index of a held interval
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

// Children's arrivals for the barrier this thread has not entered yet.
// One barrier's worth at most: a child sends its arrival at barrier k+1
// only after its release from k, and that release needs this thread's own
// arrival at k, which claimed every arrival for k.
struct EarlyArrivals {
  std::int32_t id = -1;
  int count = 0;

  void add(std::int32_t barrier_id) {
    XP_CHECK(count == 0 || id == barrier_id,
             "early arrivals for two barriers at once");
    id = barrier_id;
    ++count;
  }

  bool empty() const { return count == 0; }

  /// Claim (and clear) the arrivals recorded for `barrier_id`; 0 if none.
  int take(std::int32_t barrier_id) {
    if (id != barrier_id) return 0;
    const int c = count;
    count = 0;
    return c;
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

  // Current barrier bookkeeping (message protocol).
  std::int32_t cur_barrier = -1;
  bool self_arrived = false;
  int children_arrived = 0;
  EarlyArrivals early_arrivals;  // arrivals for future barriers

  Time wait_start;

  // Requests queued while computing (NoInterrupt / Poll policies).
  Fifo<Msg> inbox;

  // The current scaled computation interval and the poll chunk it is in
  // (model::poll_chunk numbering).
  Time compute;
  std::int64_t chunk = 0;

  ThreadStats stats;
};

// One emitted trace event, the 16-byte record every replay path appends to
// the simulator's one emission log.  `op` names the event in the thread's
// compiled ops: op_ref(i) is op i's proto, exit_ref(i) the BarrierExit that
// follows Barrier op i.  Slices of the log are moved between epochs by
// adding 2 x the op distance (the flag bit survives) and a time shift.
struct Emission {
  Time time;
  std::int32_t thread;
  std::int32_t op;
};
static_assert(sizeof(Emission) == 16, "the emission record stays 16 bytes");

constexpr std::int32_t op_ref(std::uint32_t i) {
  return static_cast<std::int32_t>(2 * i);
}
constexpr std::int32_t exit_ref(std::uint32_t i) { return op_ref(i) + 1; }

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
    // Sized once and never grown, so the ThreadCtx& that continuations
    // capture stay valid for the whole run.
    threads_.resize(static_cast<std::size_t>(n_));
    for (int t = 0; t < n_; ++t) {
      ThreadCtx& T = thr(t);
      T.id = t;
      T.proc = model::proc_of_thread(params.proc, t, n_);
      T.code = &compiled.threads[static_cast<std::size_t>(t)];
    }
    cpus_.resize(static_cast<std::size_t>(n_procs_));
    if (!use_messages()) arrival_.resize(static_cast<std::size_t>(n_));
    for (const CompiledThread& th : compiled.threads)
      hyb_.segments_total += static_cast<std::int64_t>(th.segments.size());
    collapse_ = classify();
    // Barrier-epoch memoization (DESIGN.md §16): message barriers only
    // (the barrier point is the root's), and the compile-time class
    // table supplies the key.  Replayed windows append their recorded
    // slice of the emission log time-shifted, so a trace does not turn it
    // off.
    memo_on_ = opts_.mode != SimMode::EventDriven && use_messages();
    hold_polls_ = opts_.mode != SimMode::EventDriven &&
                  params_.proc.policy == model::ServicePolicy::Poll;
    if (hold_polls_) engine_.record_origins();
    if (memo_on_)
      memo_.resize(
          static_cast<std::size_t>(compiled.epoch_classes.n_classes()));
    // Every op emits once and every Barrier op its exit too, in every mode,
    // so run() sizes the log once and it never reallocates.
    if (opts_.emit_trace)
      for (const CompiledThread& th : compiled.threads)
        log_size_ += th.ops.size() + compiled.barrier_ids.size();
  }

  /// A run left by an exception: no window simulated ahead is wanted any
  /// more, so helpers waiting to start one return (the group then waits
  /// for the running ones).
  ~Simulator() {
    if (!prerecord_) return;
    {
      std::lock_guard lock(pre_mu_);
      for (Prerecorded& p : pre_)
        if (p.state == Prerecorded::State::Waiting)
          p.state = Prerecorded::State::Done;
    }
    pre_cv_.notify_all();
  }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The log in emission order, for SimResult::extrapolated().
  std::vector<Emission> take_log() { return std::move(log_); }

  SimResult run() {
    log_.reserve(log_size_);
    if (collapse_) {
      run_analytic_sampled();
    } else {
      prerecord_windows();
      for (ThreadCtx& T : threads_) proceed(T);
      engine_.run();
      finish_prerecorded();
    }
    add_replayed_stats();
    for (const ThreadCtx& T : threads_)
      XP_CHECK(T.state == TState::Done,
               "simulation ended with thread " + std::to_string(T.id) +
                   " not done (replay deadlock)");

    SimResult r;
    r.threads.reserve(threads_.size());
    for (const ThreadCtx& T : threads_) {
      r.makespan = util::max(r.makespan, T.stats.finish);
      r.threads.push_back(T.stats);
    }
    XP_CHECK(log_.size() == log_size_,
             "emission log holds one record per op and barrier exit");
    r.messages = network_.messages_sent();
    r.bytes = network_.bytes_sent();
    r.avg_inflight = network_.avg_inflight();
    r.engine_events = engine_.fired() + window_events_;
    r.hybrid = hyb_;
    r.sampling = samp_;
    return r;
  }

 private:
  // --- segment collapse (SimMode::Auto, DESIGN.md §13) --------------------
  //
  // Every (epoch, thread) segment has a closed-form cost — and the whole
  // run skips the event engine — iff nothing can interleave with any
  // thread's own replay:
  //
  //   * every thread owns its processor (n_procs >= n_threads), so there is
  //     no CPU sharing between threads,
  //   * barriers resolve analytically (no barrier message traffic); every
  //     thread passes the same barriers (CompiledTrace::barrier_ids), so
  //     epochs advance in lockstep,
  //   * no thread performs a cross-cluster remote access anywhere in the
  //     trace (it would block on request/reply messages whose latency
  //     depends on network state, and servicing it would consume the
  //     owner's CPU at a message-determined time).
  //
  // Same-processor accesses are free and intra-cluster accesses cost a
  // fixed latency + per-byte copy on the accessing CPU only, so both stay
  // inside the closed form.  Collapse is all-or-nothing: a run that fails
  // any condition replays every segment through the engine.  One early-
  // exit scan, no allocation.
  bool classify() const {
    if (opts_.mode == SimMode::EventDriven || n_procs_ < n_ || use_messages())
      return false;
    if (params_.cluster.procs_per_cluster >= n_procs_) return true;
    // Thread t runs on processor t here.
    for (const ThreadCtx& T : threads_)
      for (const RemoteRec& rec : T.code->remotes)
        if (rec.peer != T.id && cluster_of(rec.peer) != cluster_of(T.id))
          return false;
    return true;
  }

  // --- CPU management -----------------------------------------------------

  Cpu& cpu(int proc) { return cpus_[static_cast<std::size_t>(proc)]; }

  /// Run `dur` of CPU on `proc`, then the callable `done`: at once on an
  /// idle CPU with nothing queued (built in place as the current
  /// activity), otherwise queued at the back, or at the front for `front`.
  /// A held interval is materialized first, so it is never mistaken for
  /// idle time.
  template <class F>
  void cpu_enqueue(int proc, Time dur, bool preemptible, F&& done,
                   bool front = false) {
    touch(proc);
    Cpu& c = cpu(proc);
    if (!c.busy && c.queue.empty()) {
      c.cur_done.emplace(std::forward<F>(done));
      cpu_start(proc, dur, preemptible);
      return;
    }
    CpuItem item{dur, preemptible, Continuation(std::forward<F>(done))};
    if (front)
      c.queue.push_front(std::move(item));
    else
      c.queue.push_back(std::move(item));
    cpu_pump(proc);
  }

  /// Start the activity already in cur_done: `dur` of CPU from now.
  void cpu_start(int proc, Time dur, bool preemptible) {
    Cpu& c = cpu(proc);
    c.busy = true;
    c.cur_preemptible = preemptible;
    c.cur_end = engine_.now() + dur;
    c.cur_completion =
        engine_.schedule_at(c.cur_end, [this, proc] { cpu_done(proc); });
  }

  void cpu_pump(int proc) {
    Cpu& c = cpu(proc);
    if (c.busy || c.queue.empty()) return;
    CpuItem& item = c.queue.front();
    c.cur_done = std::move(item.done);
    const Time dur = item.duration;
    const bool preemptible = item.preemptible;
    c.queue.pop_front();
    cpu_start(proc, dur, preemptible);
  }

  /// The CPU's current activity ended: run its continuation, start the
  /// next queued one.  The continuation is moved out first, since it may
  /// start the CPU's next activity in cur_done.
  void cpu_done(int proc) {
    Cpu& c = cpu(proc);
    c.busy = false;
    c.held = -1;
    Continuation done = std::move(c.cur_done);
    if (done) done();
    cpu_pump(proc);
  }

  /// Insert `dur`+`done` to run as soon as possible: preempts a running
  /// compute chunk (Interrupt policy), otherwise runs right after the
  /// current non-preemptible activity.
  template <class F>
  void cpu_preempt_insert(int proc, Time dur, F&& done) {
    Cpu& c = cpu(proc);
    if (c.busy && c.cur_preemptible) {
      const Time remaining = c.cur_end - engine_.now();
      XP_CHECK(!remaining.is_negative(), "CPU completion in the past");
      engine_.cancel(c.cur_completion);
      // Resume the interrupted chunk (with its original completion) after
      // the service finishes.
      c.queue.push_front(CpuItem{remaining, true, std::move(c.cur_done)});
      c.queue.push_front(
          CpuItem{dur, false, Continuation(std::forward<F>(done))});
      c.busy = false;
      cpu_pump(proc);
    } else {
      cpu_enqueue(proc, dur, false, std::forward<F>(done), /*front=*/true);
    }
  }

  // --- compiled-trace replay ----------------------------------------------

  ThreadCtx& thr(int id) { return threads_[static_cast<std::size_t>(id)]; }

  void proceed(ThreadCtx& T) {
    XP_CHECK(T.op < T.code->ops.size(), "replay ran past end of trace");
    const Time scaled =
        model::scale_compute(params_.proc, T.code->pre_delta[T.op]);
    start_compute(T, scaled);
  }

  // --- collapsed segments ---------------------------------------------------

  /// Replay one collapsed segment analytically from `start`: advance the
  /// replay cursors, accumulate the same per-op stats the event path would,
  /// emit the intermediate protos at their computed times, and return the
  /// time at which the terminating Barrier/End op executes.  T.op is left AT
  /// the terminator; the caller handles it.  Mirrors start_compute/
  /// run_chunk/chunk_done/exec_op/begin_remote_access exactly — per-interval
  /// MipsRatio scaling (llround is not distributive over addition),
  /// model::poll_boundaries per interval, intra-cluster costs on the
  /// accessing CPU.
  Time walk_segment(ThreadCtx& T, const Segment& seg, Time start) {
    const CompiledThread& code = *T.code;
    const bool polling = params_.proc.policy == model::ServicePolicy::Poll;
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
        // Every non-self access in a collapsed run is intra-cluster
        // (classify()).
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
            now += charge_intra_access(T, rec);
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
      const std::int64_t boundaries =
          model::poll_boundaries(params_.proc, scaled);
      T.stats.polls += boundaries;
      T.stats.poll_time += Time::ns(poll_ns * boundaries);
      now += Time::ns(poll_ns * boundaries);
      const OpKind k = code.ops[i];
      if (k == OpKind::Barrier || k == OpKind::End) {
        T.op = i;
        return now;
      }
      ++hyb_.ops_collapsed;
      switch (k) {
        case OpKind::Begin:
        case OpKind::Phase:
          emit_at(T, op_ref(i), now);
          break;
        case OpKind::Remote: {
          emit_at(T, op_ref(i), now);
          const RemoteRec& rec = code.remotes[T.remote++];
          ++T.stats.remote_accesses;
          if (rec.peer != T.id) now += charge_intra_access(T, rec);
          break;
        }
        default:
          break;
      }
    }
  }

  // --- representative-epoch sampling (SimMode::Auto, DESIGN.md §15) --------
  //
  // On the pure-analytic path the epochs run in order from the running
  // epoch start q, and an epoch whose class is already recorded replays
  // that recording (epoch replay, below) instead of walking.  Exact:
  //
  //   * walk_segment(T, seg, start) adds increments that depend only on
  //     the segment's content and the params (integer ns), so a walk from q
  //     is the walk from zero shifted by q;
  //   * model::analytic_release is the last arrival plus constants, so
  //     every thread leaves barrier e at one instant, where epoch e+1
  //     starts;
  //   * so the epochs of one EpochClassTable class (bit-identical content)
  //     share one advance, one set of per-thread stat deltas and one rebased
  //     log slice: the window the class's first epoch records.
  //
  // Cost: one walk per class instead of one per epoch — the speedup is
  // epochs/classes, ~300x for a 1000-iteration Grid run.

  /// The engine-free path: every segment of every thread collapsed, so the
  /// run is a loop over epochs of analytic segment walks joined by the
  /// analytic barrier formula — the same arrival/release/exit values the
  /// event path computes, without scheduling a single event.  This is what
  /// makes n = 10^4..10^6 simulated processors feasible.
  void run_analytic_sampled() {
    const EpochClassTable& tab = compiled_->epoch_classes;
    samp_.active = true;
    samp_.epochs = tab.epochs();
    hyb_.segments_collapsed = hyb_.segments_total;
    memo_.resize(static_cast<std::size_t>(tab.n_classes()));
    std::vector<Time> at(static_cast<std::size_t>(n_));
    // The final epoch is End-terminated, hence a singleton class: walked.
    const std::size_t last = tab.class_of.size() - 1;
    Time q;
    for (std::size_t e = 0;; ++e) {
      const std::int32_t c = tab.class_of[e];
      MemoWindow& w = memo_[static_cast<std::size_t>(c)];
      if (w.recorded) {
        q = replay(w, e, q);
        continue;
      }
      ++samp_.epochs_simulated;
      if (tab.count[static_cast<std::size_t>(c)] > 1) start_recording(c, q, e);
      for (int t = 0; t < n_; ++t) {
        ThreadCtx& T = thr(t);
        const Segment& seg = T.code->segments[e];
        T.remote = seg.remote_begin;
        const Time end = walk_segment(T, seg, q);
        ++hyb_.ops_collapsed;  // the terminating Barrier or End op
        T.op = seg.op_end + 1;
        emit_at(T, op_ref(seg.op_end), end);
        if (e == last) {
          T.state = TState::Done;
          T.stats.finish = end;
          continue;
        }
        at[static_cast<std::size_t>(t)] = end;
        arrival_[static_cast<std::size_t>(t)] =
            end + params_.barrier.entry_time;
      }
      if (e == last) return;
      // Barrier parameters are non-negative, so the release is never
      // before the last arrival.
      q = model::analytic_release(params_.barrier, arrival_);
      for (int t = 0; t < n_; ++t) {
        ThreadCtx& T = thr(t);
        T.stats.barrier_wait += q - at[static_cast<std::size_t>(t)];
        emit_at(T, exit_ref(T.code->segments[e].op_end), q);
      }
      if (rec_cls_ >= 0) finish_recording(q);
    }
  }

  void start_compute(ThreadCtx& T, Time scaled) {
    T.stats.compute += scaled;
    if (scaled.is_zero()) {
      exec_op(T);
      return;
    }
    T.compute = scaled;
    T.chunk = 0;
    run_chunk(T);
  }

  void run_chunk(ThreadCtx& T) {
    T.state = TState::Computing;
    if (hold_polls_) {
      const std::int64_t left =
          model::poll_boundaries(params_.proc, T.compute) - T.chunk;
      const Cpu& c = cpu(T.proc);
      // The chunk would start right now, with nothing waiting to be served.
      if (left > 0 && !c.busy && c.queue.empty() && T.inbox.empty()) {
        hold(T, left);
        return;
      }
    }
    const bool preemptible =
        params_.proc.policy == model::ServicePolicy::Interrupt;
    cpu_enqueue(T.proc, model::poll_chunk(params_.proc, T.compute, T.chunk),
                preemptible, [this, &T] { chunk_done(T); });
  }

  void chunk_done(ThreadCtx& T) {
    if (T.chunk == model::poll_boundaries(params_.proc, T.compute)) {
      exec_op(T);
      return;
    }
    // Poll boundary: pay the poll check, service anything queued, continue.
    ++T.chunk;
    ++T.stats.polls;
    T.stats.poll_time += params_.proc.poll_overhead;
    cpu_enqueue(T.proc, params_.proc.poll_overhead, false,
                [this, &T] { poll_done(T); });
  }

  void poll_done(ThreadCtx& T) {
    drain_inbox(T);
    run_chunk(T);  // FIFO: the next chunk queues behind the services
  }

  // --- held poll intervals (Poll in Auto, DESIGN.md §13) --------------------
  //
  // With an empty inbox and an empty CPU queue, the eager chunks of a
  // compute interval fire two events per boundary (chunk end, poll end)
  // that only schedule each other, so their instants are arithmetic: chunk
  // j ends poll_chunk(j) after it starts and the next chunk starts one
  // poll_overhead later.  hold() replaces such a run by one completion at
  // the interval's end and charges every poll up front; stats are read
  // only at the end and at quiescent barrier points, where nothing is held.
  // A touch of the CPU (an inbox push, any cpu_enqueue on it) builds the
  // chunk or poll eager replay is in at that instant and resumes eager
  // chunking; run_chunk holds the rest again once nothing waits.
  //
  // The run's events are numbered: link 2i is the end of chunk first + i,
  // link 2i + 1 the poll after it.  A link built late (the held completion,
  // a touched link) must still fire where eager replay fires it among the
  // events due at the same instant, which is scheduling order.  The engine
  // records every event's origin, and precedes() walks the two ancestries
  // up to the first difference (DESIGN.md §8).  Link 0 is exact: its
  // sequence number is the held completion's, taken when eager would have
  // scheduled it.

  /// One held run of links.
  struct HeldRun {
    ThreadCtx* thread;
    Time compute;           ///< the scaled interval
    std::int64_t first;     ///< the chunk that ends at link 0
    Time start;             ///< when chunk `first` started
    std::uint64_t seq = 0;  ///< link 0's sequence number (the completion's)
  };

  /// An event in the ancestry walk: real (by sequence number), link `link`
  /// of runs_[run], or none (scheduled outside any callback).  Link 0 has
  /// both: its run and its real sequence number.
  struct Anc {
    std::uint64_t seq = 0;
    std::int32_t run = -1;
    std::int64_t link = 0;
  };

  const HeldRun& run_of(const Anc& a) const {
    return runs_[static_cast<std::size_t>(a.run)];
  }

  Anc link_anc(std::int32_t run, std::int64_t link) const {
    return {link == 0 ? runs_[static_cast<std::size_t>(run)].seq : 0, run,
            link};
  }

  /// When link `link` of `r` is scheduled: chunk first + i starts
  /// i·(interval + overhead) after the run, and its poll when it ends.
  Time link_sched(const HeldRun& r, std::int64_t link) const {
    const std::int64_t i = link / 2;
    const Time chunk_start =
        r.start +
        Time::ns((params_.proc.poll_interval + params_.proc.poll_overhead)
                     .count_ns() *
                 i);
    if (link % 2 == 0) return chunk_start;
    return chunk_start + model::poll_chunk(params_.proc, r.compute, r.first + i);
  }

  /// When link `link` of `r` fires.
  Time link_time(const HeldRun& r, std::int64_t link) const {
    return link_sched(r, link) +
           (link % 2 == 0 ? model::poll_chunk(params_.proc, r.compute,
                                              r.first + link / 2)
                          : params_.proc.poll_overhead);
  }

  Anc anc_of(std::uint64_t seq) const {
    if (seq == 0) return {};
    const sim::Origin& o = engine_.origin(seq);
    if (o.tag < 0) return {seq};
    const Anc& a = links_[static_cast<std::size_t>(o.tag)];
    return link_anc(a.run, a.link);
  }

  Time sched_of(const Anc& a) const {
    return a.run < 0 ? engine_.origin(a.seq).sched
                     : link_sched(run_of(a), a.link);
  }

  /// The event whose callback scheduled `a`.
  Anc parent_of(const Anc& a) const {
    if (a.run >= 0 && a.link > 0) return link_anc(a.run, a.link - 1);
    return anc_of(engine_.origin(a.seq).parent);
  }

  /// Does `a` fire before `b`?  Both are due at one instant.  Walk up the
  /// two ancestries to the first pair scheduled at different instants or
  /// both real (DESIGN.md §8).
  bool precedes(Anc a, Anc b) const {
    for (;;) {
      if (a.seq != 0 && b.seq != 0) return a.seq < b.seq;
      if (a.seq == 0 && a.run < 0) return true;  // scheduled before run()
      if (b.seq == 0 && b.run < 0) return false;
      const Time sa = sched_of(a), sb = sched_of(b);
      if (sa != sb) return sa < sb;
      a = parent_of(a);
      b = parent_of(b);
    }
  }

  /// Schedule link `link` of run `run` where eager replay fires it, with
  /// the CPU's usual completion, and tag it so its own descendants resolve.
  sim::EventId schedule_link(int proc, std::int32_t run, std::int64_t link) {
    const Anc self = link_anc(run, link);
    const Time at = link_time(run_of(self), link);
    const sim::EventId id = engine_.schedule_ordered(
        at, [&](std::uint64_t seq) { return precedes(anc_of(seq), self); },
        [this, proc] { cpu_done(proc); });
    tag_link(id.seq, self);
    return id;
  }

  void tag_link(std::uint64_t seq, const Anc& link) {
    engine_.tag(seq, static_cast<std::int64_t>(links_.size()));
    links_.push_back(link);
  }

  /// Hold the rest of T's interval — chunk T.chunk starting now and the
  /// `left` boundaries after it — as one completion at its end.
  void hold(ThreadCtx& T, std::int64_t left) {
    T.stats.polls += left;
    T.stats.poll_time +=
        Time::ns(params_.proc.poll_overhead.count_ns() * left);
    const auto run = static_cast<std::int32_t>(runs_.size());
    runs_.push_back({&T, T.compute, T.chunk, engine_.now()});
    const std::int64_t last = 2 * left;  // the last chunk's end
    const int proc = T.proc;
    Cpu& c = cpu(proc);
    c.busy = true;
    c.cur_preemptible = false;
    c.held = run;
    c.cur_end = link_time(runs_.back(), last);
    c.cur_done = [this, &T] { exec_op(T); };
    c.cur_completion = engine_.schedule_at(
        c.cur_end, [this, proc, run, last] { held_done(proc, run, last); });
    runs_.back().seq = c.cur_completion.seq;
    tag_link(c.cur_completion.seq, {0, run, last});
  }

  /// The held completion is due.  It was queued when the interval started,
  /// not when eager replay schedules the last chunk's end, so events due
  /// now that precede that twin go first.
  void held_done(int proc, std::int32_t run, std::int64_t last) {
    const Anc self = link_anc(run, last);
    if (engine_.any_due_now(
            [&](std::uint64_t seq) { return precedes(anc_of(seq), self); })) {
      cpu(proc).cur_completion = schedule_link(proc, run, last);
      return;
    }
    cpu_done(proc);
  }

  /// Something is about to act on `proc`'s CPU (an inbox push, any
  /// cpu_enqueue): if it holds an interval, build the eager state first.
  void touch(int proc) {
    if (cpu(proc).held >= 0) materialize(proc);
  }

  /// Cancel the held completion and run the chunk or poll eager replay is
  /// in at this instant, as the link eager replay would fire.  Polls
  /// charged up front that eager replay has not reached yet are taken
  /// back; chunk_done charges them.
  void materialize(int proc) {
    Cpu& c = cpu(proc);
    const std::int32_t run = c.held;
    c.held = -1;
    engine_.cancel(c.cur_completion);
    const Time now = engine_.now();
    const Anc toucher = anc_of(engine_.firing_seq());
    const HeldRun& r = runs_[static_cast<std::size_t>(run)];
    ThreadCtx& T = *r.thread;
    const std::int64_t last =
        2 * (model::poll_boundaries(params_.proc, T.compute) - r.first);
    std::int64_t link = 0;
    for (;; ++link) {
      XP_CHECK(link <= last, "a held run passed its own completion");
      const Time at = link_time(r, link);
      if (at > now || (at == now && precedes(toucher, link_anc(run, link))))
        break;
    }
    T.chunk = r.first + (link + 1) / 2;
    const std::int64_t unreached =
        model::poll_boundaries(params_.proc, T.compute) - T.chunk;
    T.stats.polls -= unreached;
    T.stats.poll_time -=
        Time::ns(params_.proc.poll_overhead.count_ns() * unreached);
    c.cur_end = link_time(r, link);
    if (link % 2 == 0)
      c.cur_done = [this, &T] { chunk_done(T); };
    else
      c.cur_done = [this, &T] { poll_done(T); };
    c.cur_completion = schedule_link(proc, run, link);
  }

  /// The enum-dispatched continuation after a compute interval: execute the
  /// op the interval led up to, advancing the replay cursors.
  void exec_op(ThreadCtx& T) {
    const CompiledThread& code = *T.code;
    const std::uint32_t i = T.op++;
    emit(T, op_ref(i));
    switch (code.ops[i]) {
      case OpKind::Begin:
      case OpKind::Phase:
        proceed(T);
        break;
      case OpKind::End:
        T.state = TState::Done;
        T.stats.finish = engine_.now();
        // A finished thread's processor keeps servicing remote requests
        // (§3.3.3); anything queued while it was computing drains now.
        drain_inbox(T);
        break;
      case OpKind::Remote:
        begin_remote_access(T, code.remotes[T.remote++]);
        break;
      case OpKind::Barrier:
        begin_barrier(T, compiled_->barrier_ids[T.barrier++]);
        break;
    }
  }

  // --- remote data access (§3.3.2) ----------------------------------------

  int cluster_of(int proc) const {
    return proc / params_.cluster.procs_per_cluster;
  }

  /// Same cluster (§3.3.1 shared-memory clustering): a shared-memory
  /// transfer on the accessing CPU — fixed latency plus the per-byte copy;
  /// no messages, no owner involvement.  Charges T and returns the cost.
  Time charge_intra_access(ThreadCtx& T, const RemoteRec& rec) {
    ++T.stats.intra_cluster_accesses;
    const std::int64_t bytes = model::reply_payload_bytes(
        params_.size_mode, rec.declared_bytes, rec.actual_bytes);
    const Time cost =
        params_.cluster.intra_latency +
        params_.cluster.intra_byte_time * static_cast<double>(bytes);
    T.stats.comm_wait += cost;
    return cost;
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
      cpu_enqueue(T.proc, charge_intra_access(T, rec), false,
                  [this, &T] { proceed(T); });
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
            touch(O.proc);
            O.inbox.push_back(Msg(req));
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
      const Msg req = T.inbox.front();
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
    emit(T, exit_ref(T.op - 1));  // T.op is one past the Barrier op
    T.stats.barrier_wait += engine_.now() - T.wait_start;
    T.self_arrived = false;
    T.children_arrived = 0;
    T.cur_barrier = -1;
    proceed(T);
  }

  /// Every thread arrives once per barrier, and none can arrive at the next
  /// before this one releases, so one arrival vector serves every barrier.
  void analytic_arrive(ThreadCtx& T) {
    arrival_[static_cast<std::size_t>(T.id)] = engine_.now();
    if (++arrived_ < n_) return;
    arrived_ = 0;
    const Time at = util::max(
        model::analytic_release(params_.barrier, arrival_), engine_.now());
    const std::int32_t id = T.cur_barrier;
    for (int t = 0; t < n_; ++t) {
      engine_.schedule_at(at, [this, t, id] {
        ThreadCtx& W = thr(t);
        XP_CHECK(W.state == TState::WaitBarrier && W.cur_barrier == id,
                 "analytic release for a thread not in the barrier");
        barrier_exit_done(W);
      });
    }
  }

  // --- epoch replay (DESIGN.md §15, §16) -----------------------------------
  //
  // An epoch whose class was already seen repeats its recorded effect.  The
  // first window of an EpochClassTable class that recurs (count > 1) is
  // simulated and recorded as a MemoWindow: the advance, every thread's
  // ThreadStats delta, the message, byte and load-sum counts of its
  // injections and, with a trace requested, its slice of the emission log,
  // rebased to times since the window's start and to op offsets from each
  // thread's segment of the window's epoch.  Every later window of the
  // class goes through replay(): it appends the slice shifted to its own
  // start and epoch — the protos and barrier ids are re-read from that
  // epoch at expansion, since the class key compares op kinds, not ids or
  // objects — adds the traffic counts (integers, so in O(1) and exactly
  // what injecting the messages would add) and counts a hit.  That is the
  // oracle's emission order: a window's internal order is fixed by the
  // arguments below, and every replayed event lies inside its window.
  //
  // The stat deltas wait for the end of the run, where run() adds each
  // window's deltas hits times (add_replayed_stats).  The adds are integer,
  // so they commute; nothing reads the stats before then; and a recording
  // takes differences of stats, which adds still pending do not change.
  //
  // Two paths supply the windows:
  //
  //   * analytic barriers (run_analytic_sampled): a window is one epoch,
  //     from its start to its barrier exit, walked without the engine; the
  //     exactness argument is at that function.
  //
  //   * message barriers (at_barrier_point, the event path): a barrier
  //     point Q_b is the instant the root absorbs barrier b's last arrival,
  //     just before it starts lowering the barrier.  If at Q_b no engine
  //     event is pending, no message is in flight, every CPU is idle with
  //     an empty queue, and every thread waits in barrier b with an empty
  //     inbox and no early arrivals, then nothing from before Q_b can act
  //     after it.  The run from Q_b to Q_{b+1} is then a time-translated
  //     function of the content of epoch b+1 alone: every duration (scaled
  //     compute, poll chunks measured from compute start, preemption
  //     remainder, contention from the in-flight count, which starts at
  //     zero) depends on relative times only, and with an empty queue the
  //     engine's tie order is the scheduling order of the window itself.
  //     So the class id of epoch b+1 is an exact key, and the window is
  //     recorded as it runs through the engine.  barrier_wait is split at
  //     every quiescent point (wait_start moves to Q) so a window's delta
  //     does not depend on the window before it; the split is exact in
  //     integer nanoseconds.  Barrier b's BarrierExit is the op offset just
  //     before epoch b+1's segment, and hits are replayed before the
  //     engine resumes.

  /// Recorded effect of one window.
  struct MemoWindow {
    bool recorded = false;
    /// Simulated by another engine (record_window) and not replayed yet:
    /// its first replay counts as the memo miss its simulation was.
    bool prerecorded = false;
    std::int64_t hits = 0;  ///< replays whose stats are not added yet
    Time advance;
    std::vector<ThreadStats> delta;  ///< per thread
    std::int64_t messages = 0;
    std::int64_t bytes = 0;
    std::int64_t load_sum = 0;  ///< in-flight counts seen at injection
    std::vector<Emission> events;  ///< rebased log slice; trace runs only
  };

  /// Replay window `w` as epoch `e` starting at `q`; return where it ends.
  Time replay(MemoWindow& w, std::size_t e, Time q) {
    ++w.hits;
    network_.replay(w.messages, w.bytes, w.load_sum);
    append_slice(w.events.data(), w.events.data() + w.events.size(), e, q);
    return q + w.advance;
  }

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

  /// Scale a span or a count by an integer — exact (no llround), unlike
  /// Time::operator*(double).
  static Time times(Time t, std::int64_t k) {
    return Time::ns(t.count_ns() * k);
  }
  static std::int64_t times(std::int64_t v, std::int64_t k) { return v * k; }

  /// Add every replayed window's stat deltas, once per hit.  A window's
  /// finish delta is zero: windows end at barriers, and finish is set at
  /// End.
  void add_replayed_stats() {
    for (MemoWindow& w : memo_) add_window_stats(w);
  }

  /// Add window `w`'s stat deltas once per hit so far, and forget the hits.
  /// Integer adds, so it does not matter when.
  void add_window_stats(MemoWindow& w) {
    if (w.hits == 0) return;
    for (ThreadCtx& T : threads_)
      zip_stats(T.stats, w.delta[static_cast<std::size_t>(T.id)],
                [k = w.hits](auto& x, const auto& d) { x += times(d, k); });
    w.hits = 0;
  }

  bool quiescent(const ThreadCtx& R) const {
    if (engine_.pending() != 0 || network_.inflight() != 0) return false;
    for (const Cpu& c : cpus_)
      if (c.busy || !c.queue.empty()) return false;
    for (const ThreadCtx& T : threads_) {
      const auto kids = plan_.children[static_cast<std::size_t>(T.id)].size();
      if (T.state != TState::WaitBarrier || T.barrier != R.barrier ||
          T.cur_barrier != R.cur_barrier || !T.self_arrived ||
          T.children_arrived != static_cast<int>(kids) ||
          !T.inbox.empty() || !T.early_arrivals.empty())
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
      if (window_only_)
        window_end_ = true;
      else
        lower_barrier(R);
      return;
    }
    const Time q0 = engine_.now();
    for (ThreadCtx& T : threads_) {
      T.stats.barrier_wait += q0 - T.wait_start;
      T.wait_start = q0;
    }
    if (hold_polls_) {
      // Every later event descends from the one firing now, so no
      // ancestry walk reaches past it (DESIGN.md §8), and no interval is
      // held: the held-run history starts over.
      engine_.forget_origins_before(engine_.firing_seq());
      runs_.clear();
      links_.clear();
    }
    if (rec_cls_ >= 0) finish_recording(q0);
    if (window_only_) {
      window_end_ = true;
      return;
    }

    const EpochClassTable& tab = compiled_->epoch_classes;
    const auto n_barriers = compiled_->barrier_ids.size();
    const std::size_t b0 = R.barrier - 1;  // the barrier being lowered
    std::size_t b = b0;                    // ... after the replayed windows
    Time q = q0;
    for (; b + 1 < n_barriers; ++b) {
      MemoWindow& w = memo_[static_cast<std::size_t>(tab.class_of[b + 1])];
      if (!w.recorded && !take_prerecorded(b + 1)) break;
      q = replay(w, b + 1, q);
      if (w.prerecorded) {
        w.prerecorded = false;
        ++hyb_.memo_misses;
      } else {
        ++hyb_.memo_hits;
      }
      // A pre-recorded class of one epoch is done with: free its window.
      if (tab.count[static_cast<std::size_t>(tab.class_of[b + 1])] == 1) {
        add_window_stats(w);
        w = {};
      }
    }
    if (b + 1 < n_barriers) {
      ++hyb_.memo_misses;
      const std::int32_t c = tab.class_of[b + 1];
      // A class that never recurs is not worth recording.
      if (tab.count[static_cast<std::size_t>(c)] > 1)
        start_recording(c, q, b + 1);
    }
    if (b == b0) {
      lower_barrier(R);
      return;
    }
    enter_barrier_point(b, q);
    engine_.schedule_at(q, [this, &R] { lower_barrier(R); });
  }

  /// Put every thread at barrier point Q_b, time `q`: the state the windows
  /// up to Q_b leave behind.  The cursors stand just past barrier b's op,
  /// and the fields that repeat at every quiescent point are set to what
  /// they repeat: every thread waits in barrier b since q, every arrival
  /// absorbed.  Nothing else is left over (quiescent()): no event, CPU
  /// activity, inbox entry or early arrival.
  void enter_barrier_point(std::size_t b, Time q) {
    for (ThreadCtx& T : threads_) {
      const Segment& seg = T.code->segments[b];
      T.op = seg.op_end + 1;
      T.remote = seg.remote_end;
      T.barrier = static_cast<std::uint32_t>(b + 1);
      T.cur_barrier = compiled_->barrier_ids[b];
      T.wait_start = q;
      T.state = TState::WaitBarrier;
      T.self_arrived = true;
      T.children_arrived = static_cast<int>(
          plan_.children[static_cast<std::size_t>(T.id)].size());
    }
  }

  // --- pre-recorded windows (DESIGN.md §16) ---------------------------------
  //
  // A window that starts at a quiescent point is a time-shifted function of
  // its epoch's content alone, so it can be simulated before the run
  // reaches it, in an engine of its own.  A large prediction
  // (util::parallel_workers grants more than one thread at
  // kParallelMinThreads) does so for the first window of every class among
  // epochs 1..B-1, in epoch order, while the caller's run simulates epoch 0:
  // each in a Simulator of its own that starts from Q_{e-1} at time 0
  // (enter_barrier_point, the jump after replays) and stops at Q_e
  // (record_window).  A window whose Q_e is not quiescent comes back
  // unrecorded, as the caller would drop its own recording.
  //
  // The caller takes the windows in the same order (take_prerecorded): at a
  // quiescent point whose next epoch has one, it waits for it (or simulates
  // it itself if no helper has started it), files it in its memo table and
  // replays it like any memo window; a window it reaches from a point that
  // is not quiescent runs through its own engine, as without pre-recording.
  // The caller reserves each window's buffers (size_ahead), at most
  // `workers` windows ahead of the one it waits for, and helpers start only
  // sized windows; a class of one epoch frees its window at that one
  // replay.  So the run holds a few windows more than the sequential run
  // does, not all of them, and what it holds sits in the caller's malloc
  // arena: a helper's arena keeps only one window Simulator's worth.
  //
  // Counters keep their meaning: a window some engine simulated is one
  // miss, counted at its first replay; a later replay is a hit; and
  // engine_events adds every window engine's events (every window is
  // simulated, used or not, so the count does not depend on timing).

  /// One window simulated ahead: epoch `epoch`, first of class `cls`.
  struct Prerecorded {
    enum class State { Waiting, Running, Done };
    std::int32_t cls = -1;
    std::size_t epoch = 0;
    State state = State::Waiting;  ///< guarded by pre_mu_
    bool sized = false;  ///< window's buffers reserved; guarded by pre_mu_
    MemoWindow window;   ///< recorded only if Q_epoch is quiescent
    std::uint64_t fired = 0;  ///< its engine's events
    std::exception_ptr error;
  };

  /// Start simulating the windows ahead, if this run is large enough.
  void prerecord_windows() {
    const std::size_t n_barriers = compiled_->barrier_ids.size();
    if (!memo_on_ || n_barriers < 2) return;
    const int workers = util::parallel_workers(n_, kParallelMinThreads);
    if (workers == 1) return;
    const EpochClassTable& tab = compiled_->epoch_classes;
    std::vector<std::size_t> first;  // epochs that start a class
    std::vector<bool> seen(static_cast<std::size_t>(tab.n_classes()));
    for (std::size_t e = 1; e < n_barriers; ++e) {
      const auto c = static_cast<std::size_t>(tab.class_of[e]);
      if (!seen[c]) first.push_back(e);
      seen[c] = true;
    }
    pre_ = std::vector<Prerecorded>(first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      pre_[i].epoch = first[i];
      pre_[i].cls = tab.class_of[first[i]];
    }
    pre_ahead_ = static_cast<std::size_t>(workers);
    size_ahead();
    prerecord_.emplace(pre_.size(), workers, [this](std::size_t i) {
      simulate_prerecorded(i, false);
    });
  }

  /// Reserve the buffers of the next pre_ahead_ windows the caller has not
  /// claimed, on the caller's thread: the windows the run keeps live in
  /// the caller's malloc arena, not in those of the short-lived helper
  /// threads, which keep what they free resident (util/parallel.hpp).
  /// Helpers run only windows whose buffers are reserved, so they stay
  /// that far ahead of the caller.
  void size_ahead() {
    const std::size_t end = std::min(pre_.size(), pre_next_ + pre_ahead_);
    for (std::size_t i = pre_next_; i < end; ++i) {
      Prerecorded& p = pre_[i];
      {
        std::lock_guard lock(pre_mu_);
        if (p.sized || p.state != Prerecorded::State::Waiting) continue;
      }
      reserve_window(p.epoch, p.window);
      {
        std::lock_guard lock(pre_mu_);
        p.sized = true;
      }
      pre_cv_.notify_all();
    }
  }

  /// Simulate window `i` of pre_ unless a thread already has.  A helper
  /// waits until its buffers are reserved; the caller reserves them if need
  /// be.
  void simulate_prerecorded(std::size_t i, bool caller) {
    Prerecorded& p = pre_[i];
    bool sized;
    {
      std::unique_lock lock(pre_mu_);
      if (!caller)
        pre_cv_.wait(lock, [&] {
          return p.sized || p.state != Prerecorded::State::Waiting;
        });
      if (p.state != Prerecorded::State::Waiting) return;
      p.state = Prerecorded::State::Running;
      sized = p.sized;
    }
    try {
      if (!sized) reserve_window(p.epoch, p.window);
      Simulator window(*compiled_, params_, opts_);
      window.record_window(p.epoch, p.window);
      p.fired = window.engine_.fired();
    } catch (...) {
      p.error = std::current_exception();
    }
    {
      std::lock_guard lock(pre_mu_);
      p.state = Prerecorded::State::Done;
    }
    pre_cv_.notify_all();
  }

  /// Wait for window `i` of pre_ (simulating it here if no helper has
  /// started it), rethrow its exception, and let the helpers go on to the
  /// windows after it.
  Prerecorded& claim_prerecorded(std::size_t i) {
    Prerecorded& p = pre_[i];
    simulate_prerecorded(i, true);
    {
      std::unique_lock lock(pre_mu_);
      pre_cv_.wait(lock,
                   [&] { return p.state == Prerecorded::State::Done; });
      pre_next_ = i + 1;
    }
    size_ahead();
    if (p.error) std::rethrow_exception(p.error);
    return p;
  }

  /// The caller stands at a quiescent point before epoch `e`: if epoch e
  /// has a window simulated ahead, claim it and file it in the memo table.
  /// Returns whether it came back recorded.  Windows of epochs before e
  /// ran through the caller's engine; the run's end claims them.
  bool take_prerecorded(std::size_t e) {
    std::size_t i = pre_next_;
    while (i < pre_.size() && pre_[i].epoch < e) ++i;
    if (i == pre_.size() || pre_[i].epoch != e) return false;
    Prerecorded& p = claim_prerecorded(i);
    if (!p.window.recorded) return false;
    memo_[static_cast<std::size_t>(p.cls)] = std::move(p.window);
    return true;
  }

  /// The run is over: claim every window not claimed yet, so every run
  /// simulates all of them and fires the same events, and count the
  /// windows' events.
  void finish_prerecorded() {
    if (!prerecord_) return;
    for (std::size_t i = pre_next_; i < pre_.size(); ++i)
      claim_prerecorded(i);
    prerecord_->join();
    prerecord_.reset();
    for (const Prerecorded& p : pre_) window_events_ += p.fired;
    std::vector<Prerecorded>().swap(pre_);
  }

  /// Reserve what window `e` records into `w`: a stat delta per thread
  /// and, in a trace run, the records it emits (barrier e-1's exits and
  /// epoch e's ops).
  void reserve_window(std::size_t e, MemoWindow& w) const {
    w.delta.reserve(threads_.size());
    if (!opts_.emit_trace) return;
    std::size_t records = threads_.size();
    for (const ThreadCtx& T : threads_) {
      const Segment& seg = T.code->segments[e];
      records += seg.op_end - seg.op_begin + 1;
    }
    w.events.reserve(records);
  }

  /// Simulate window `e` alone, from barrier point Q_{e-1} at time 0 to
  /// Q_e, in the buffers of `out` (reserve_window): `out` comes back
  /// recorded, or not if Q_e is not quiescent.  The window's log is
  /// out.events.
  void record_window(std::size_t e, MemoWindow& out) {
    const std::int32_t c = compiled_->epoch_classes.class_of[e];
    memo_[static_cast<std::size_t>(c)] = std::move(out);
    log_ = std::move(memo_[static_cast<std::size_t>(c)].events);
    enter_barrier_point(e - 1, Time::zero());
    start_recording(c, Time::zero(), e);
    window_only_ = true;
    lower_barrier(thr(plan_.root));
    while (!window_end_ && engine_.step_one()) {
    }
    MemoWindow& w = memo_[static_cast<std::size_t>(c)];
    w.prerecorded = w.recorded;
    out = std::move(w);
  }

  void start_recording(std::int32_t cls, Time q, std::size_t epoch) {
    rec_cls_ = cls;
    rec_start_ = q;
    rec_epoch_ = epoch;
    rec_log_ = log_.size();
    // The window's own buffers hold the base until finish_recording; an
    // abandoned recording leaves them to the class's next attempt.
    MemoWindow& w = memo_[static_cast<std::size_t>(cls)];
    w.delta.clear();
    w.delta.reserve(threads_.size());
    for (const ThreadCtx& T : threads_) w.delta.push_back(T.stats);
    rec_messages_ = network_.messages_sent();
    rec_bytes_ = network_.bytes_sent();
    rec_load_sum_ = network_.load_sum();
  }

  void finish_recording(Time q) {
    MemoWindow& w = memo_[static_cast<std::size_t>(rec_cls_)];
    w.recorded = true;
    w.advance = q - rec_start_;
    for (const ThreadCtx& T : threads_)
      zip_stats(w.delta[static_cast<std::size_t>(T.id)], T.stats,
                [](auto& base, const auto& now) { base = now - base; });
    w.messages = network_.messages_sent() - rec_messages_;
    w.bytes = network_.bytes_sent() - rec_bytes_;
    w.load_sum = network_.load_sum() - rec_load_sum_;
    if (window_only_)
      w.events = std::move(log_);  // the whole log is the window
    else
      w.events.assign(log_.begin() + static_cast<std::ptrdiff_t>(rec_log_),
                      log_.end());
    rebase(w.events.data(), w.events.data() + w.events.size(), rec_epoch_,
           rec_start_);
    stop_recording();
  }

  void stop_recording() { rec_cls_ = -1; }

  // --- output ---------------------------------------------------------------

  void emit(const ThreadCtx& T, std::int32_t op) {
    emit_at(T, op, engine_.now());
  }

  // Runs with emit_trace off (served queries, huge-n scaling runs, the
  // policy tuner) log nothing.
  void emit_at(const ThreadCtx& T, std::int32_t op, Time at) {
    if (opts_.emit_trace) log_.push_back({at, T.id, op});
  }

  /// Rebase the records in [first, last), emitted from epoch `e`, to times
  /// since `origin` and ops relative to each thread's segment of epoch e.
  void rebase(Emission* first, Emission* last, std::size_t e, Time origin) {
    for (; first != last; ++first) {
      first->time -= origin;
      first->op -= op_ref(thr(first->thread).code->segments[e].op_begin);
    }
  }

  /// Append the rebased records in [first, last) as epoch `e` starting at
  /// `at` emits them.
  void append_slice(const Emission* first, const Emission* last,
                    std::size_t e, Time at) {
    for (; first != last; ++first)
      log_.push_back(
          {at + first->time, first->thread,
           first->op +
               op_ref(thr(first->thread).code->segments[e].op_begin)});
  }

  SimParams params_;
  SimOptions opts_;
  const CompiledTrace* compiled_;
  int n_;
  int n_procs_;
  model::BarrierPlan plan_;
  sim::Engine engine_;
  net::Network network_;
  std::vector<ThreadCtx> threads_;  ///< sized once; never grows
  std::vector<Cpu> cpus_;
  /// Barrier arrival times, analytic barriers only: the one barrier in
  /// flight on the event path, the epoch's barrier on the analytic path.
  std::vector<Time> arrival_;
  int arrived_ = 0;  ///< arrivals at the event path's barrier in flight
  std::vector<Emission> log_;  ///< emission order; trace runs only
  std::size_t log_size_ = 0;   ///< records a finished traced run holds

  bool hold_polls_ = false;  ///< Poll in Auto: hold compute intervals
  std::vector<HeldRun> runs_;  ///< every held run, by index
  std::vector<Anc> links_;     ///< built links, by engine tag

  bool collapse_ = false;  ///< every segment collapses (classify())
  HybridStats hyb_;
  SamplingStats samp_;

  // Barrier-epoch memo state (at_barrier_point()).
  bool memo_on_ = false;
  std::vector<MemoWindow> memo_;  ///< by epoch class
  std::int32_t rec_cls_ = -1;     ///< class being recorded; -1 = none
  Time rec_start_;
  std::size_t rec_epoch_ = 0;     ///< the recorded window's epoch
  std::size_t rec_log_ = 0;       ///< log_ index where the window starts
  std::int64_t rec_messages_ = 0;
  std::int64_t rec_bytes_ = 0;
  std::int64_t rec_load_sum_ = 0;

  // Pre-recorded windows (prerecord_windows()).  A window's own Simulator
  // has window_only_ set and stops at window_end_.
  bool window_only_ = false;
  bool window_end_ = false;
  std::uint64_t window_events_ = 0;  ///< events of the windows' engines
  std::vector<Prerecorded> pre_;     ///< in epoch order; fixed once started
  std::size_t pre_next_ = 0;   ///< first window the caller has not claimed
  std::size_t pre_ahead_ = 0;  ///< windows sized ahead of it
  std::mutex pre_mu_;          ///< guards the windows' state and sized
  std::condition_variable pre_cv_;
  /// The windows' simulations, while they run.  Declared last: destroyed
  /// first, it waits for them before anything they read goes away.
  std::optional<util::TaskGroup> prerecord_;
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

void SimCounters::add(const SimResult& r) {
  const HybridStats& h = r.hybrid;
  const SamplingStats& sp = r.sampling;
  if (sp.active) {
    ++cells_sampled;
    epochs_total += sp.epochs;
    epochs_simulated += sp.epochs_simulated;
  } else if (h.memo_hits > 0) {
    ++cells_memo;
  } else {
    ++cells_event;
  }
  events_fired += static_cast<std::int64_t>(r.engine_events);
  segments_collapsed += h.segments_collapsed;
  segments_total += h.segments_total;
  ops_collapsed += h.ops_collapsed;
  memo_hits += h.memo_hits;
  memo_misses += h.memo_misses;
}

const char* to_string(SimMode m) {
  switch (m) {
    case SimMode::EventDriven: return "event";
    case SimMode::Auto: return "auto";
  }
  return "?";
}

struct SimResult::Extrapolation {
  int n_threads = 0;
  std::vector<Emission> log;  ///< emission order, until expanded
  std::shared_ptr<const CompiledTrace> code;  ///< the protos; null if no log
  util::OnceCell<trace::Trace> trace;
};

namespace {

/// The extrapolated trace: the log stable-sorted by (time, thread), each
/// record expanded from its proto.  Each thread's own emission order is the
/// same in every mode, but the fast paths emit a whole segment, window or
/// epoch at once, so same-time events of different threads would otherwise
/// keep a mode-dependent global order.
trace::Trace expand(int n_threads, std::vector<Emission>& log,
                    const CompiledTrace* code) {
  std::stable_sort(log.begin(), log.end(),
                   [](const Emission& a, const Emission& b) {
                     return a.time != b.time ? a.time < b.time
                                             : a.thread < b.thread;
                   });
  trace::Trace out(n_threads);
  out.set_meta("extrapolated", "1");
  std::vector<Event>& events = out.mutable_events();
  events.reserve(log.size());
  for (const Emission& m : log) {
    const Event& proto =
        code->threads[static_cast<std::size_t>(m.thread)].proto[static_cast<
            std::size_t>(m.op >> 1)];
    Event e;
    if (m.op & 1) {
      e.kind = EventKind::BarrierExit;
      e.barrier_id = proto.barrier_id;
    } else {
      e = proto;
    }
    e.time = m.time;
    e.thread = m.thread;
    events.push_back(e);
  }
  return out;
}

}  // namespace

const trace::Trace& SimResult::extrapolated() const {
  static const trace::Trace kNone;
  if (!extrapolation_) return kNone;
  Extrapolation& x = *extrapolation_;
  return x.trace.get_or_init([&x] {
    trace::Trace t = expand(x.n_threads, x.log, x.code.get());
    // The trace replaces the log and the protos it was expanded from.
    x.log = {};
    x.code.reset();
    return t;
  });
}

SimResult simulate(const std::vector<trace::Trace>& translated,
                   const SimParams& params, const SimOptions& opts) {
  XP_REQUIRE(!translated.empty(), "no translated traces");
  return simulate_compiled(
      std::make_shared<const CompiledTrace>(CompiledTrace::compile(translated)),
      params, opts);
}

SimResult simulate_compiled(std::shared_ptr<const CompiledTrace> compiled,
                            const SimParams& params, const SimOptions& opts) {
  XP_REQUIRE(compiled && compiled->n_threads >= 1, "no translated traces");
  Simulator sim(*compiled, params, opts);
  SimResult r = sim.run();
  auto x = std::make_shared<SimResult::Extrapolation>();
  x->n_threads = compiled->n_threads;
  x->log = sim.take_log();
  if (!x->log.empty()) x->code = std::move(compiled);
  r.extrapolation_ = std::move(x);
  return r;
}

}  // namespace xp::core
