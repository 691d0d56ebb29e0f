"""dropfed: a deterministic federated-learning simulator for client dropout.

The package simulates synchronous federated optimization where clients come
and go, and measures how much of the optimization error is explained by who
participates (bias), batch noise (variance), and staleness.  Four server
algorithms share one update law: plain averaging, averaging with memorized
updates, correction-variable averaging that re-centers partial participation
toward the full-population update, and control-variate local training.

Import from the submodules: dropfed.config holds ExperimentConfig and the
config file loader, dropfed.harness runs trials and experiments,
dropfed.summary writes summary.txt and compares runs, dropfed.cli is the
command line, and dropfed.objectives, dropfed.aggregation and
dropfed.local_trainer hold the stacked-client kernels and round rules.
"""

__version__ = "0.1.0"
