// Host-speed probe. The benchmark's host times are scaled by how fast this
// fixed loop ran beside them (see run.py), which cancels most of a slowdown
// of the shared host.
#pragma once

namespace perfbench {

/// Seconds one fixed pass of the probe loop takes. Built as its own target,
/// with flags no simulator change reaches.
double host_probe_seconds();

}  // namespace perfbench
