"""nexusopt: a dual-loop gradient-alignment optimizer with theorem oracles.

The inner loop runs normalized-SGD micro-steps along a task index sequence
that its caller samples; the accumulated displacement (the pseudo-gradient,
a plain array) feeds a standard outer optimizer. To second order in the inner
step size this maximizes pairwise gradient cosine similarity across tasks,
which in turn bounds how far the trained parameters can sit from the
individual task minimizers.

Submodules:
  numerics    vectors, splittable RNG streams, finite-difference oracles
  tasks       one quadratic task class with an optional third-derivative
              tensor (a cubic), task families, task sets, serialization,
              the mean gradient cosine and closeness
  mlp         tiny MLP regression tasks, closed-form backprop, synthetic sources
  optimizers  SGD, normalized SGD, decoupled AdamW, lr schedules, clipping
  nexus       the inner loop over a given task sequence
  oracles     exact expectations, expansions, error bounds, gap formulas
  validate    theorem-validation suites
  config      strict flat dotted-key experiment configs
  harness     training driver (samples the inner-loop tasks), metric records,
              outputs, sweeps (runs in worker processes through parallel)
  parallel    an ordered map over forked worker processes, for sweep runs and
              validate suites
  svgplot     dependency-free SVG charts
  cli         the `nexusopt` command
"""

from .nexus import NexusConfig, inner_loop
from .tasks import QuadraticTask, TaskFamily, TaskSet

__all__ = [
    "NexusConfig",
    "inner_loop",
    "QuadraticTask",
    "TaskFamily",
    "TaskSet",
]

__version__ = "0.1.0"
