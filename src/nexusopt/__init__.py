"""nexusopt: a dual-loop gradient-alignment optimizer with theorem oracles.

The inner loop runs normalized-SGD micro-steps along a task index sequence
that its caller samples; the accumulated displacement (the pseudo-gradient,
a plain array) feeds a standard outer optimizer. To second order in the inner
step size this maximizes pairwise gradient cosine similarity across tasks,
which in turn bounds how far the trained parameters can sit from the
individual task minimizers.

Submodules:
  numerics    vectors, splittable RNG streams, finite-difference oracles
  tasks       quadratic/cubic task families, task sets, serialization
  mlp         tiny MLP regression tasks, closed-form backprop, synthetic sources
  optimizers  SGD, normalized SGD, decoupled AdamW, lr schedules, clipping
  nexus       the inner loop over a given task sequence, its accumulation adaptation
  analysis    similarity matrices, closeness, transfer, flatness bounds
  oracles     exact expectations, expansions, error bounds, gap formulas
  validate    theorem-validation suites
  config      strict flat dotted-key experiment configs
  harness     training driver (samples the inner-loop tasks), metric records,
              outputs, process-parallel sweeps
  svgplot     dependency-free SVG charts
  cli         the `nexusopt` command
"""

from .nexus import NexusConfig, inner_loop, nexus_accum_run, nexus_outer_step
from .tasks import CubicTask, QuadraticTask, TaskFamily, TaskSet

__all__ = [
    "NexusConfig",
    "inner_loop",
    "nexus_accum_run",
    "nexus_outer_step",
    "QuadraticTask",
    "CubicTask",
    "TaskFamily",
    "TaskSet",
]

__version__ = "0.1.0"
