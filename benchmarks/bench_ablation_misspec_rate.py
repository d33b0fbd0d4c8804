"""Ablation C — gain as a function of the true aliasing rate.

Section 4 warns: "A high mis-speculation ratio can decrease the benefit
of speculative optimization or even degrade performance ... for the
chk.a, there is a relatively large penalty to jump to and back from the
recovery code" (section 2.5).  ld.c failures only cost the reload, so
plain value speculation can hardly lose; the degradation risk lives in
**cascaded** promotion, where a failed chk.a pays the recovery trap.
This bench drives a pointer-chain kernel (rounds=2, chk.a checks) whose
*address* really changes on a controllable fraction of iterations,
trained on an input where it never does.
"""

from __future__ import annotations

import pytest

from repro.pipeline import CompilerOptions, OptLevel, SpecMode, compile_source, run_program

from conftest import publish_table, record_counters

#: ``main(n)``: the pointer p (promoted, checked with chk.a after
#: cascade promotion) is really redirected when i % RATE == 0 beyond
#: the training region (train n=40 < 50).
TEMPLATE = """
int a; int b; int c;
int *p;
int *other;
int **q;
int **w;
int out;

int main(int n) {
    q = &p;
    p = &a;
    other = &c;
    a = 3;
    b = 9;
    int i = 0;
    while (i < n) {
        if (i > 50 && i %% %(rate)d == 0) {
            w = &p;                  // really redirects the pointer
        } else {
            w = &other;
        }
        out = out + *(*q);
        *w = &b;                     // address-ambiguous pointer store
        out = out + *(*q) %% 13;
        i = i + 1;
    }
    print(out);
    print(*p);
    return out %% 251;
}
"""

RATES = (1000, 50, 10, 4, 2, 1)
TRAIN = [40]
REF = [2000]


def _measure(rate: int):
    source = TEMPLATE % {"rate": rate}
    ref = run_program(source, REF)
    rows = {}
    for mode in (SpecMode.NONE, SpecMode.PROFILE):
        out = compile_source(
            source,
            CompilerOptions(opt_level=OptLevel.O3, spec_mode=mode, rounds=2),
            train_args=TRAIN,
        )
        res = out.run(REF)
        assert res.output == ref.output, f"rate={rate} mode={mode}: diverged"
        record_counters(
            "ablation:misspec_rate", "misspec_kernel", mode.value,
            res.counters, config={"alias_every": rate, "rounds": 2},
        )
        rows[mode] = res.counters
    base, spec = rows[SpecMode.NONE], rows[SpecMode.PROFILE]
    gain = 100.0 * (base.cpu_cycles - spec.cpu_cycles) / base.cpu_cycles
    return gain, 100.0 * spec.misspeculation_ratio


@pytest.fixture(scope="module")
def sweep():
    return {rate: _measure(rate) for rate in RATES}


def test_misspec_rate_table(sweep):
    def render():
        lines = [
            "Ablation C. Gain vs true aliasing rate (adversarial kernel)",
            "-" * 64,
            f"{'alias every':>12}{'mis-spec ratio %':>18}{'cycle gain %':>14}",
            "-" * 64,
        ]
        for rate in RATES:
            gain, ratio = sweep[rate]
            lines.append(f"{rate:>12}{ratio:>18.1f}{gain:>14.2f}")
        lines.append("-" * 64)
        return "\n".join(lines)

    table = render()
    publish_table("ablation_misspec_rate", table)


def test_gain_decays_with_aliasing(sweep):
    rare_gain = sweep[1000][0]
    constant_gain = sweep[1][0]
    assert rare_gain > constant_gain, (
        "gains must shrink as true aliasing grows"
    )


def test_ratio_monotone(sweep):
    assert sweep[1000][1] <= sweep[10][1] <= sweep[1][1] + 1e-9


def test_rare_aliasing_still_wins(sweep):
    assert sweep[1000][0] > 0


def test_constant_aliasing_degrades(sweep):
    """With the address changing every iteration, recovery traps should
    erode most (or all) of the speculative advantage."""
    assert sweep[1][0] < sweep[1000][0] * 0.7


def test_correctness_under_constant_aliasing(sweep):
    # the rate=1 entry only exists if its differential check passed
    assert 1 in sweep
