"""A plain reference for the training half of the round loop.

`reference_run` trains each round's sampled clients one at a time, in
ascending id, with `local_train`, then aggregates: no lockstep groups, no
process pool, no shared parameter block and no reused buffers.
`run_federation` must end on the same parameters, bit for bit, at every
worker count.  The check pins no digest, so it holds on any BLAS kernel.
"""

import pytest

from fednsim.cli import load_run
from fednsim.federation import aggregate, local_train, run_federation, sample_clients
from fednsim.model import init_params

from test_federation import set_workers
from test_golden import CASES, _config


def reference_run(fed, mlp, train, partition, test):
    """Final parameters of the plain round loop; `test` goes unused, as nothing is scored."""
    clients = {c.client_id: c for c in partition}
    eligible = [cid for cid, c in clients.items() if len(c) > 0]
    w = init_params(mlp, fed.master_seed)
    for t in range(1, fed.rounds + 1):
        ids = sample_clients(len(partition), fed.sampling_ratio, t, fed.master_seed, eligible)
        w = aggregate([local_train(w, [clients[cid]], train, fed, mlp, t)[0] for cid in ids],
                      fed.aggregation)
    return w


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_federation_ends_on_the_reference_params(name, monkeypatch):
    inputs = load_run(_config(name))
    want = reference_run(*inputs).tobytes()
    for workers in (1, 2, 3):
        set_workers(monkeypatch, workers)
        assert run_federation(*inputs).final_params.tobytes() == want, f"{workers} workers"
