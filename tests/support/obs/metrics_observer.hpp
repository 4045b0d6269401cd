#pragma once

#include "obs/metrics.hpp"

/// \file metrics_observer.hpp
/// A sim::Runner observer that feeds the global metrics registry: one
/// counter bump per observed round, and the round's active-set size added
/// to `sim.observed_active`. Opt-in by construction —
/// the zero-observer Runner path compiles to the bare step loop, so
/// attaching this (or not) is exactly the "metrics on/off" toggle the
/// inertness tests exercise. Reads process state only; never touches the
/// RNG stream.

namespace cobra::obs {

class MetricsObserver {
 public:
  MetricsObserver()
      : rounds_(registry().counter("sim.observed_rounds")),
        runs_(registry().counter("sim.observed_runs")),
        active_(registry().counter("sim.observed_active")) {}

  template <class P>
  void start(const P&) {
    runs_.add(1);
  }

  template <class P>
  void observe(const P& p) {
    rounds_.add(1);
    active_.add(p.active().size());
  }

 private:
  Counter& rounds_;
  Counter& runs_;
  Counter& active_;
};

}  // namespace cobra::obs
