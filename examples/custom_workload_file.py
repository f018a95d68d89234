#!/usr/bin/env python
"""Define a DNN with the Fig. 8 workload file format and simulate it.

Shows the full round trip: author a workload description in the paper's
text format, parse it, run it, and write it back out.

Run with::

    python examples/custom_workload_file.py
"""

import tempfile

from repro import (
    CollectiveAlgorithm,
    System,
    TorusShape,
    build_torus_topology,
    paper_simulation_config,
)
from repro.analysis.report import RunSummary
from repro.workload.parser import dumps, loads
from repro.workload.training_loop import TrainingLoop

#: A small hybrid-parallel network in the Fig. 8 format: parallelism
#: header, layer count, then per layer: name / compute times
#: (fwd, input-grad, weight-grad) / collective types / sizes / local
#: update time (cycles per KB).
WORKLOAD_TEXT = """
HYBRID data:local,horizontal model:vertical
3
conv_in
120000 110000 130000
NONE NONE ALLREDUCE
0 0 2097152
1.0
attention
180000 170000 190000
ALLGATHER ALLREDUCE ALLREDUCE
4194304 4194304 8388608
1.0
classifier
90000 85000 95000
NONE ALLREDUCE ALLREDUCE
0 4194304 4194304
1.0
"""


def main() -> None:
    model = loads(WORKLOAD_TEXT, name="custom-dnn")
    print(f"parsed {model.num_layers} layers, strategy={model.strategy.kind.value}")

    config = paper_simulation_config(algorithm=CollectiveAlgorithm.ENHANCED)
    topology = build_torus_topology(TorusShape(2, 2, 2), config.network,
                                    config.system)
    system = System(topology, config)
    report = TrainingLoop(system, model, num_iterations=2).run()
    print(RunSummary.from_report(report).format())

    # Round-trip the model back to the text format.
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write(dumps(model))
        print(f"\nworkload re-serialized to {f.name}:")
    print(dumps(model))


if __name__ == "__main__":
    main()
