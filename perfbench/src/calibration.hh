/**
 * @file
 * Host-speed calibration. The end-to-end host times are wall-clock on a
 * machine the benchmark shares with other tenants, whose speed drifts
 * by tens of percent over seconds to minutes.
 *
 * A fixed kernel, timed in the benchmark's own thread between reps,
 * measures how fast the machine runs while the workload does. The
 * end-to-end host metrics are scaled by it to a nominal machine speed.
 * Over ten seeds per workload on the 4-vCPU reference VM, this took
 * the spread (interquartile range / median) of ops_per_s from
 * 0.09-0.14 unscaled to 0.04-0.07. The kernel is part of the
 * benchmark and calls nothing in src/, so a change to the simulator
 * moves the workload's times and not the kernel's.
 */

#ifndef PERFBENCH_CALIBRATION_HH
#define PERFBENCH_CALIBRATION_HH

#include <cstdint>
#include <vector>

namespace perfbench {

class Calibration
{
  public:
    /**
     * Seconds one pass takes at the nominal machine speed, about the
     * median pass time on the reference VM. Host times are reported
     * as if every pass had taken this long: scaled by kNominalPassS /
     * the run's median pass time.
     */
    static constexpr double kNominalPassS = 0.025;

    /** Allocates and fills the kernel's table (untimed). */
    Calibration();

    /**
     * Time passes until @p budgetS seconds have gone by, at least one.
     * Each pass has three phases of similar length, one per kind of
     * host work the simulator does: an integer hash chain (core
     * speed), a binary-heap event queue feeding a small hash map
     * (cache-resident pointer work) and the same heap feeding random
     * read-modify-writes over a table larger than a core's L2 (shared
     * cache and memory).
     */
    void sample(double budgetS);

    /** Seconds of every pass so far. */
    const std::vector<double> &passS() const { return _passS; }

    /** Bytes of the table, resident for the whole run. */
    std::size_t tableBytes() const;

  private:
    double pass();

    std::vector<std::uint64_t> _table;
    std::vector<double> _passS;
    std::uint64_t _sink = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATION_HH
