#include "metrics/metrics.hpp"

#include "util/error.hpp"

namespace xp::metrics {

double speedup(Time t1, Time tn) {
  XP_REQUIRE(tn > Time::zero(), "speedup with nonpositive T(n)");
  return t1 / tn;
}

double efficiency(double speedup_value, int n) {
  XP_REQUIRE(n > 0, "efficiency needs n > 0");
  return speedup_value / static_cast<double>(n);
}

Breakdown breakdown(const SimResult& r) {
  Breakdown b;
  const double n = static_cast<double>(r.threads.size());
  const double total = r.makespan.to_us() * n;
  if (total <= 0) return b;
  double compute = 0, comm = 0, barrier = 0, service = 0, overhead = 0;
  for (const auto& t : r.threads) {
    compute += t.compute.to_us();
    comm += t.comm_wait.to_us();
    barrier += t.barrier_wait.to_us();
    service += t.service_time.to_us();
    overhead += t.send_overhead.to_us() + t.poll_time.to_us();
  }
  b.compute = compute / total;
  b.comm_wait = comm / total;
  b.barrier_wait = barrier / total;
  b.service = service / total;
  b.overhead = overhead / total;
  b.idle = 1.0 - (compute + comm + barrier + service + overhead) / total;
  return b;
}

Curve to_speedup_curve(const std::string& label, const std::vector<int>& procs,
                       const std::vector<Time>& times) {
  XP_REQUIRE(!times.empty() && times.size() == procs.size(),
             "curve needs matching procs/times");
  Curve c;
  c.label = label;
  c.procs = procs;
  c.values.reserve(times.size());
  for (const Time& t : times) c.values.push_back(speedup(times.front(), t));
  return c;
}

std::size_t argmin_time(const std::vector<Time>& values) {
  XP_REQUIRE(!values.empty(), "argmin of empty vector");
  std::size_t best = 0;
  for (std::size_t i = 1; i < values.size(); ++i)
    if (values[i] < values[best]) best = i;
  return best;
}

}  // namespace xp::metrics
