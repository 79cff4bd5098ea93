"""FLOP model of one GNN layer (``costmodel.layer_flops``), which both
simulators use for forward compute time."""
import pytest

from repro.simulate.costmodel import layer_flops


class TestLayerFlops:
    def test_monotone_in_edges(self):
        for kind in ("sage", "gcn", "gat"):
            assert layer_flops(kind, 100, 2000, 16, 16) > layer_flops(
                kind, 100, 1000, 16, 16
            )

    def test_sage_doubles_dense_cost(self):
        sage = layer_flops("sage", 100, 0, 16, 16)
        gcn = layer_flops("gcn", 100, 0, 16, 16)
        assert sage == 2 * gcn

    def test_gat_pays_attention_premium(self):
        assert layer_flops("gat", 100, 5000, 16, 16) > layer_flops(
            "gcn", 100, 5000, 16, 16
        )

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            layer_flops("mlp", 1, 1, 1, 1)
