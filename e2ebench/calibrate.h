// Host-speed calibration for the end-to-end benchmark (README.md, "Host
// drift"). The measuring host is shared, and the same binary's speed moves
// by tens of percent from minute to minute while CPU time stays equal to
// wall time. A fixed kernel timed next to every pipeline measures that
// speed, and the timing metrics are reported at the speed the kernel had
// when it took kReferenceMs.
#pragma once

namespace mp::e2e {

// About the kernel's median wall time on the 4-vCPU virtual Xeon host that
// recorded results.json (7.1–8.6 ms there, in calm windows). Any constant
// would do: it only fixes the scale, and both sides of a comparison use it.
constexpr double kReferenceMs = 8.0;

// Runs the kernel once and returns its wall time in milliseconds. It is
// built in its own library without the repository's compile options, and
// calls no repository code, so a change to the repository cannot move it.
double calibration_ms();

}  // namespace mp::e2e
