#!/usr/bin/env python3
"""Bring your own benchmark: measure ALAT speculation on *your* kernel.

Shows the complete downstream-user workflow: write a MiniC kernel,
wrap it as a :class:`Workload`, run the same baseline-vs-speculative
measurement the paper's harness uses, and print a one-row version of
every figure.

Run:  python examples/custom_workload.py
"""

from repro.workloads import (
    Workload,
    figure8_table,
    figure9_table,
    figure10_table,
    figure11_table,
    run_benchmark,
)

# A hash-join kernel: build side fills buckets through a pointer whose
# static class includes the join counters (dead path); probe side reads
# the counters every tuple.
MY_KERNEL = Workload(
    name="hashjoin",
    description="bucketised hash join with speculatively promoted "
    "probe-side counters",
    train_args=(40,),
    ref_args=(300,),
    is_float=False,
    source="""
int buckets[64];
int matches;        // join statistics, read per probe
int probe_cost;     // config, read per probe
int *bucket_ptr;
int out;

int main(int n) {
    probe_cost = 3;
    if (n == -1) { bucket_ptr = &matches; }   // dead: fattens the class
    int seed = 2024;
    int i = 0;
    while (i < n) {
        seed = (seed * 1103515245 + 12345) % 2147483648;
        int key = seed % 509;
        // build: insert into a bucket through the pointer
        bucket_ptr = &buckets[key % 64];
        *bucket_ptr = key;
        // probe: the counters cross the ambiguous store above
        if (buckets[(key * 7) % 64] % 13 == key % 13) {
            matches = matches + 1;
        }
        out = out + matches % 7 + probe_cost % 2;
        i = i + 1;
    }
    print(out);
    print(matches);
    return out % 251;
}
""",
)


def main() -> None:
    print(f"custom workload: {MY_KERNEL.name} — {MY_KERNEL.description}\n")

    rows = {MY_KERNEL.name: run_benchmark(MY_KERNEL)}
    for table in (
        figure8_table(rows),
        figure9_table(rows),
        figure10_table(rows),
        figure11_table(rows),
    ):
        print(table)
        print()

    print(
        "both configurations were differentially validated against the\n"
        "unoptimised interpreter before any number above was produced."
    )


if __name__ == "__main__":
    main()
