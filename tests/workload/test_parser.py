"""Tests for the Fig. 8 workload file reader/writer."""

import pytest

from repro.collectives.types import CollectiveOp
from repro.dims import Dimension
from repro.errors import WorkloadError
from repro.workload.parallelism import ParallelismKind
from repro.workload.parser import dumps, loads

VALID = """
# A comment line.
DATA
2
conv1
1000 1100 1200
NONE NONE ALLREDUCE
0 0 37632
1.5
fc  # trailing comments are stripped
500 550 600
NONE NONE ALLREDUCE
0 0 8192000
1.0
"""

HYBRID_TEXT = """
HYBRID data:local,horizontal model:vertical
1
enc
100 100 100
ALLGATHER ALLREDUCE ALLREDUCE
1024 1024 2048
1.0
"""


class TestLoads:
    def test_parses_layers(self):
        model = loads(VALID, name="test")
        assert model.num_layers == 2
        assert model.strategy.kind is ParallelismKind.DATA
        conv1 = model.layer("conv1")
        assert conv1.forward_cycles == 1000.0
        assert conv1.weight_grad_comm.op is CollectiveOp.ALL_REDUCE
        assert conv1.weight_grad_comm.size_bytes == 37632.0
        assert conv1.local_update_cycles_per_kb == 1.5

    def test_comments_and_blanks_ignored(self):
        model = loads(VALID)
        assert model.layer("fc").forward_cycles == 500.0

    def test_hybrid_header(self):
        model = loads(HYBRID_TEXT)
        assert model.strategy.kind is ParallelismKind.HYBRID
        assert model.strategy.data_dims == (Dimension.LOCAL, Dimension.HORIZONTAL)
        assert model.strategy.model_dims == (Dimension.VERTICAL,)

    def test_model_header(self):
        text = HYBRID_TEXT.replace("HYBRID data:local,horizontal model:vertical",
                                   "MODEL")
        assert loads(text).strategy.kind is ParallelismKind.MODEL

    @pytest.mark.parametrize("mutation,match", [
        (("DATA", "BANANAS"), "unknown parallelism"),
        (("2", "two"), "bad layer count"),
        (("NONE NONE ALLREDUCE", "NONE NONE FROBNICATE"), "unknown collective"),
        (("1000 1100 1200", "1000 1100"), "three compute times"),
        (("0 0 37632", "0 37632"), "three sizes"),
    ])
    def test_malformed_inputs(self, mutation, match):
        old, new = mutation
        with pytest.raises(WorkloadError, match=match):
            loads(VALID.replace(old, new, 1))

    def test_truncated_file(self):
        truncated = "\n".join(VALID.strip().splitlines()[:5])
        with pytest.raises(WorkloadError, match="unexpected end"):
            loads(truncated)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WorkloadError, match="trailing"):
            loads(VALID + "\nextra stuff\n")

    def test_hybrid_without_groups_rejected(self):
        with pytest.raises(WorkloadError):
            loads(HYBRID_TEXT.replace(
                "HYBRID data:local,horizontal model:vertical", "HYBRID"))

    def test_unknown_dimension_rejected(self):
        with pytest.raises(WorkloadError, match="unknown dimension"):
            loads(HYBRID_TEXT.replace("model:vertical", "model:diagonal"))


class TestRoundTrip:
    def test_data_parallel_round_trip(self):
        model = loads(VALID, name="rt")
        again = loads(dumps(model), name="rt")
        assert again.num_layers == model.num_layers
        for a, b in zip(model.layers, again.layers):
            assert a == b

    def test_hybrid_round_trip(self):
        model = loads(HYBRID_TEXT, name="rt")
        again = loads(dumps(model), name="rt")
        assert again.strategy == model.strategy
        assert again.layers == model.layers

    def test_dump_format_is_line_oriented(self):
        model = loads(HYBRID_TEXT)
        text = dumps(model)
        lines = text.strip().splitlines()
        assert lines[0].startswith("HYBRID")
        assert lines[1] == "1"
        assert len(lines) == 2 + 5 * model.num_layers


class TestFileIO:
    def test_load_dump_file(self, tmp_path):
        from repro.workload.parser import dump, load

        model = loads(VALID, name="file-test")
        path = tmp_path / "workload.txt"
        dump(model, path)
        again = load(path, name="file-test")
        assert again.layers == model.layers
