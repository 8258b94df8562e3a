"""The benchmark's workloads: which scenarios a run adapts, and how.

A workload seed S stands for ``scenarios`` synthetic scenarios whose
generator seeds are S, S + 1000, S + 2000, ...  Scenario 0 is the seed
itself.  Why each workload was chosen is recorded in BENCHMARK.json.
Averaging over several scenarios per run keeps the run-to-run
spread small even though k-means convergence, and with it the adaptation
time, depends on the data.  Every scenario uses its generator seed as its
adaptation seed.  All workloads share the model size, the rejection
threshold and the pretraining length below.

``scaled-opda-glcpp`` (N_t = 6000) is not in BENCHMARK.json and is run by
hand.  One pipeline takes about 30 s, so a run holds a single scenario, and
its time varies between seeds by more than the benchmark's bounds allow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SCENARIO_STRIDE = 1000
D_HIDDEN = 64
D_FEAT = 32
OMEGA = 0.55
PRETRAIN_EPOCHS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    variant: str
    epochs: int
    scenarios: int
    # A run adapts every scenario at least this often; see bench.measure.
    passes: int = 3
    overrides: dict = field(default_factory=dict)

    def scenario_seeds(self, seed: int) -> list[int]:
        return [seed + SCENARIO_STRIDE * i for i in range(self.scenarios)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="toy-opda-glcpp",
            preset="opda-toy",
            variant="glcpp",
            epochs=20,
            scenarios=2,
        ),
        Workload(
            name="toy-pda-glc",
            preset="pda-toy",
            variant="glc",
            epochs=20,
            scenarios=4,
        ),
        Workload(
            name="scaled-opda-glcpp",
            preset="opda-toy",
            variant="glcpp",
            epochs=2,
            scenarios=1,
            passes=2,  # a pass takes ~33 s; a run must end within 180 s
            overrides={"target_per_class": 1000},
        ),
    )
}
