"""Exact subset-sum solving with instrumented comparison counts.

Library surface:

  * model: Instance, subset_sum, verify, canonical instance file I/O
  * ledger: ComparisonLedger, which runs and charges each counted phase
    (C/M/T), trace events and dumps, solution_witness_check
  * solvers: brute_force_solve, mitm_solve, half_sums, dp_solve
  * generators: powers2 / random / planted instance families
  * bench: run_scaling_experiment, growth fitting, CSV records,
    tradeoff_report
  * cli: the `subsum` command
"""

from .bench import (ExperimentRecord, GrowthFit, fit_growth, group_records,
                    read_records_csv, run_scaling_experiment,
                    tradeoff_report, write_records_csv)
from .generators import (GeneratorSpec, InstanceMeta, gen_planted,
                         gen_powers_of_two, gen_random_wide, generate)
from .ledger import (ComparisonLedger, CompareEvent, EmitEvent,
                     Ordering, SortedListEvent, TraceError, dump_trace,
                     parse_trace, solution_witness_check)
from .model import (Instance, InstanceFormatError, dumps_instance,
                    loads_instance, read_instance, subset_sum, verify,
                    write_instance)
from .rng import SplitMix64, derive_seed
from .solvers import (CapExceededError, Half, HalfSumEntry, SolveResult,
                      brute_force_solve, dp_solve, half_sums, mitm_solve)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError", "ComparisonLedger", "CompareEvent", "EmitEvent",
    "ExperimentRecord", "GeneratorSpec", "GrowthFit", "Half", "HalfSumEntry",
    "Instance", "InstanceFormatError", "InstanceMeta", "Ordering",
    "SolveResult", "SortedListEvent", "SplitMix64", "TraceError",
    "brute_force_solve", "derive_seed", "dp_solve", "dump_trace",
    "dumps_instance", "fit_growth", "gen_planted", "gen_powers_of_two",
    "gen_random_wide", "generate", "group_records", "half_sums",
    "loads_instance", "mitm_solve", "parse_trace", "read_instance",
    "read_records_csv", "run_scaling_experiment", "solution_witness_check",
    "subset_sum", "tradeoff_report", "verify", "write_instance",
    "write_records_csv",
]
