#include "machine/machine_sim.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "fiber/scheduler.hpp"
#include "model/barrier_model.hpp"
#include "model/remote_model.hpp"
#include "net/message_cost.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xp::machine {

namespace {

using model::ServicePolicy;

enum class Waiting { Running, Reply, Barrier, Done };

struct TState {
  Time now;         ///< local clock
  Time busy_until;  ///< end of the last service chargeable to this CPU
  Time last_wake;   ///< start of the current compute span
  Waiting waiting = Waiting::Running;
  Time wait_start;
  int barrier_count = 0;
  Time finish;
};

struct Bar {
  bool master_in = false;
  int fiber_arrivals = 0;    ///< threads that reached the barrier
  int master_processed = 0;  ///< arrive messages the master has handled
  Time master_ready;         ///< latest of master arrival / arrive handling
  std::vector<Time> arrivals;  ///< analytic mode
  bool released = false;
};

class MachineRuntime final : public rt::Runtime {
 public:
  MachineRuntime(int n_threads, const MachineConfig& cfg)
      : n_(n_threads),
        cfg_(cfg),
        topo_(cfg.params.network.topology, n_threads),
        rng_(cfg.seed),
        st_(static_cast<std::size_t>(n_threads)) {
    XP_REQUIRE(n_ > 0, "machine needs at least one processor");
    XP_REQUIRE(cfg_.mflops > 0, "machine MFLOPS rating must be positive");
    cfg_.params.validate(n_threads);
  }

  MachineResult run(rt::Program& prog) {
    prog.setup(*this);
    for (int t = 0; t < n_; ++t) {
      sched_.spawn([this, t, &prog] {
        prog.thread_main(*this);
        TState& s = st_[static_cast<std::size_t>(t)];
        s.waiting = Waiting::Done;
        s.wait_start = s.now;
        s.finish = s.now;
      });
    }
    sched_.set_idle_hook([this] { return engine_.step_one(); });
    sched_.run();
    engine_.run();  // drain trailing deliveries (update busy accounting)

    MachineResult r;
    r.thread_finish.reserve(static_cast<std::size_t>(n_));
    for (const TState& s : st_) {
      const Time f = util::max(s.finish, s.busy_until);
      r.thread_finish.push_back(f);
      r.exec_time = util::max(r.exec_time, f);
    }
    r.messages = messages_;
    r.bytes = bytes_;
    r.requests_served = served_;
    r.barriers = st_.empty() ? 0 : st_[0].barrier_count;
    prog.verify();
    return r;
  }

  // --- rt::Runtime interface ----------------------------------------------

  int n_threads() const override { return n_; }

  int thread_id() const override {
    const int id = sched_.current();
    XP_REQUIRE(id >= 0, "thread_id() outside a parallel thread");
    return id;
  }

  void compute_flops(double flops) override {
    XP_REQUIRE(flops >= 0, "negative flop charge");
    compute_time(Time::us(flops / cfg_.mflops));
  }

  void compute_time(Time t) override {
    XP_REQUIRE(!t.is_negative(), "negative time charge");
    double factor = 1.0;
    if (cfg_.compute_jitter > 0)
      factor = std::max(0.2, 1.0 + cfg_.compute_jitter * rng_.normal());
    self().now += t * factor;
  }

  void phase_begin(std::int64_t) override {}
  void phase_end(std::int64_t) override {}

  void barrier() override {
    const int me = thread_id();
    TState& T = self();
    T.now += cfg_.params.barrier.entry_time;
    const int id = T.barrier_count++;
    Bar& b = bars_[id];
    if (b.arrivals.empty() && !by_msgs())
      b.arrivals.assign(static_cast<std::size_t>(n_), Time::zero());
    ++b.fiber_arrivals;
    ++barrier_events_;

    if (by_msgs()) {
      if (me == 0) {
        b.master_in = true;
        b.master_ready = util::max(b.master_ready, T.now);
        maybe_release(id);
      } else {
        T.now += net::send_cpu_time(cfg_.params.comm);
        const Time arrival =
            T.now + wire(me, 0, cfg_.params.barrier.msg_size);
        engine_.schedule_at(arrival, [this, id] { on_bar_arrive(id); });
      }
    } else {
      b.arrivals[static_cast<std::size_t>(me)] = T.now;
      if (b.fiber_arrivals == n_) analytic_release(id);
    }
    wait(T, Waiting::Barrier);
  }

  void on_remote_read(int owner, std::int64_t, std::int32_t declared,
                      std::int32_t actual) override {
    remote_access(owner, declared, actual, /*is_write=*/false);
  }

  void on_remote_write(int owner, std::int64_t, std::int32_t declared,
                       std::int32_t actual) override {
    remote_access(owner, declared, actual, /*is_write=*/true);
  }

 private:
  TState& self() { return st_[static_cast<std::size_t>(thread_id())]; }
  TState& thr(int t) { return st_[static_cast<std::size_t>(t)]; }

  bool by_msgs() const { return cfg_.params.barrier.by_msgs; }

  /// Wire time with live contention and jitter; injects into the in-flight
  /// population until the corresponding event fires (callers must call
  /// delivered() when processing the arrival).
  Time wire(int src, int dst, std::int64_t msg_bytes) {
    double mult =
        1.0 + (cfg_.params.network.contention.enabled
                   ? cfg_.params.network.contention.factor *
                         static_cast<double>(inflight_) / topo_.capacity()
                   : 0.0);
    if (cfg_.wire_jitter > 0)
      mult *= 1.0 + cfg_.wire_jitter * std::fabs(rng_.normal());
    ++inflight_;
    ++messages_;
    bytes_ += msg_bytes;
    return net::wire_time(cfg_.params.comm, topo_.hops(src, dst), msg_bytes,
                          mult);
  }
  void delivered() {
    XP_CHECK(inflight_ > 0, "delivery without matching injection");
    --inflight_;
  }

  void wait(TState& T, Waiting w) {
    T.waiting = w;
    T.wait_start = T.now;
    sched_.block();
    // Woken by wake_thread(): local clock already advanced.
    T.waiting = Waiting::Running;
    T.last_wake = T.now;
  }

  void wake_thread(int t, Time at) {
    TState& T = thr(t);
    XP_CHECK(T.waiting == Waiting::Reply || T.waiting == Waiting::Barrier,
             "waking a thread that is not waiting");
    T.now = util::max(T.now, at);
    T.busy_until = util::max(T.busy_until, T.now);
    sched_.unblock(t);
  }

  /// When can `O` start handling a message that arrived at time `a`, and at
  /// what extra cost?  Policy-dependent if it arrived during computation.
  Time service_start(const TState& O, Time a, Time* extra) {
    *extra = Time::zero();
    Time base = a;
    // wait_start is the end of O's current (or, for Done threads, final)
    // compute span; arrivals inside the span are resolved by the policy.
    if (a < O.wait_start) {
      // Arrived during the compute span [last_wake, wait_start).
      switch (cfg_.params.proc.policy) {
        case ServicePolicy::NoInterrupt:
          base = O.wait_start;
          break;
        case ServicePolicy::Interrupt:
          base = a;
          *extra = cfg_.params.proc.interrupt_overhead;
          break;
        case ServicePolicy::Poll: {
          const Time span = a - O.last_wake;
          const std::int64_t iv = cfg_.params.proc.poll_interval.count_ns();
          const std::int64_t k = (span.count_ns() + iv - 1) / iv;
          const Time boundary = O.last_wake + Time::ns(k * iv);
          if (boundary < O.wait_start) {
            base = boundary;
            *extra = cfg_.params.proc.poll_overhead;
          } else {
            base = O.wait_start;
          }
          break;
        }
      }
    } else if (O.waiting == Waiting::Done) {
      base = util::max(a, O.now);
    }
    return util::max(base, O.busy_until);
    // (busy_until serializes back-to-back services on one processor.)
  }

  void remote_access(int owner, std::int32_t declared, std::int32_t actual,
                     bool is_write) {
    const int me = thread_id();
    XP_REQUIRE(owner >= 0 && owner < n_, "remote peer out of range");
    if (owner == me) return;
    TState& T = self();
    const int ppc = cfg_.params.cluster.procs_per_cluster;
    if (owner / ppc == me / ppc && ppc > 1) {
      // Intra-cluster shared-memory access (one thread per processor on
      // the machine, so clusters group processors directly).
      const std::int64_t bytes = model::reply_payload_bytes(
          cfg_.params.size_mode, declared, actual);
      T.now += cfg_.params.cluster.intra_latency +
               cfg_.params.cluster.intra_byte_time *
                   static_cast<double>(bytes);
      return;
    }
    T.now += net::send_cpu_time(cfg_.params.comm);
    std::int64_t req_bytes = cfg_.params.comm.request_bytes;
    if (is_write)
      req_bytes += model::reply_payload_bytes(cfg_.params.size_mode, declared,
                                              actual);
    const Time arrival = T.now + wire(me, owner, req_bytes);
    engine_.schedule_at(arrival, [this, me, owner, declared, actual,
                                  is_write] {
      delivered();
      on_request(me, owner, declared, actual, is_write);
    });
    wait(T, Waiting::Reply);
  }

  void on_request(int requester, int owner, std::int32_t declared,
                  std::int32_t actual, bool is_write) {
    TState& O = thr(owner);
    Time extra;
    const Time start = service_start(O, engine_.now(), &extra);
    const Time end =
        start + extra + model::service_cpu_time(cfg_.params.comm,
                                                cfg_.params.proc);
    O.busy_until = util::max(O.busy_until, end);
    ++served_;
    const std::int64_t rep_bytes =
        is_write ? cfg_.params.comm.reply_header_bytes
                 : model::reply_message_bytes(cfg_.params.comm,
                                              cfg_.params.size_mode, declared,
                                              actual);
    // Schedule the reply leaving at service end.
    const Time rep_arrival = end + wire(owner, requester, rep_bytes);
    engine_.schedule_at(rep_arrival, [this, requester] {
      delivered();
      TState& R = thr(requester);
      XP_CHECK(R.waiting == Waiting::Reply,
               "reply for a thread that is not waiting");
      const Time w = util::max(engine_.now(), R.busy_until) +
                     cfg_.params.comm.recv_overhead;
      wake_thread(requester, w);
    });
  }

  void on_bar_arrive(int id) {
    delivered();
    Bar& b = bars_[id];
    TState& M = thr(0);
    Time extra;
    const Time start = service_start(M, engine_.now(), &extra);
    const Time end = start + extra + cfg_.params.comm.recv_overhead +
                     cfg_.params.barrier.check_time;
    M.busy_until = util::max(M.busy_until, end);
    ++b.master_processed;
    b.master_ready = util::max(b.master_ready, end);
    maybe_release(id);
  }

  void maybe_release(int id) {
    Bar& b = bars_[id];
    if (b.released || !b.master_in || b.master_processed < n_ - 1) return;
    b.released = true;
    const Time send_cpu = net::send_cpu_time(cfg_.params.comm);
    const Time start = b.master_ready + cfg_.params.barrier.model_time;
    for (int i = 1; i < n_; ++i) {
      const Time send_done = start + send_cpu * static_cast<double>(i);
      const Time arrival =
          send_done + wire(0, i, cfg_.params.barrier.msg_size);
      engine_.schedule_at(arrival, [this, i] {
        delivered();
        TState& S = thr(i);
        const Time w = util::max(engine_.now(), S.busy_until) +
                       cfg_.params.comm.recv_overhead +
                       cfg_.params.barrier.exit_check_time +
                       cfg_.params.barrier.exit_time;
        wake_thread(i, w);
      });
    }
    TState& M = thr(0);
    const Time master_exit = util::max(
        start + send_cpu * static_cast<double>(n_ - 1) +
            cfg_.params.barrier.exit_time,
        M.busy_until);
    // The master's own wake goes through an event too, so fiber execution
    // stays causal even when n == 1 (the caller is the master).
    engine_.schedule_at(master_exit, [this, master_exit] {
      wake_thread(0, master_exit);
    });
  }

  void analytic_release(int id) {
    Bar& b = bars_[id];
    b.released = true;
    const Time rel = model::analytic_release(cfg_.params.barrier, b.arrivals);
    for (int t = 0; t < n_; ++t) {
      const Time at =
          util::max(rel, b.arrivals[static_cast<std::size_t>(t)]);
      engine_.schedule_at(util::max(at, engine_.now()), [this, t, at] {
        wake_thread(t, util::max(at, thr(t).busy_until));
      });
    }
  }

  int n_;
  MachineConfig cfg_;
  net::Topology topo_;
  util::Xoshiro256ss rng_;
  fiber::Scheduler sched_;
  sim::Engine engine_;
  std::vector<TState> st_;
  std::map<int, Bar> bars_;
  int inflight_ = 0;
  std::int64_t messages_ = 0;
  std::int64_t bytes_ = 0;
  std::int64_t served_ = 0;
  std::int64_t barrier_events_ = 0;
};

}  // namespace

MachineResult run_on_machine(rt::Program& prog, int n_threads,
                             const MachineConfig& cfg) {
  MachineRuntime rt(n_threads, cfg);
  return rt.run(prog);
}

MachineConfig cm5_machine() {
  MachineConfig cfg;
  cfg.params = model::cm5_preset();
  cfg.mflops = 2.7645;
  return cfg;
}

}  // namespace xp::machine
