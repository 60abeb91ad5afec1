#!/bin/bash
# Regenerates every recorded experiment. Scales chosen so the whole script
# completes in tens of minutes on a laptop; see EXPERIMENTS.md.
set -x
# pilut-bench is a workspace member: its binaries land in the root target/.
cargo build --release --offline -p pilut-bench
BIN=target/release
PILUT_SCALE=0.5 $BIN/table1 > experiments/table1.txt 2> experiments/table1.log
PILUT_SCALE=0.25 $BIN/table2 > experiments/table2.txt 2> experiments/table2.log
PILUT_SCALE=0.25 PILUT_MAX_NMV=800 $BIN/table3 > experiments/table3.txt 2> experiments/table3.log
PILUT_SCALE=0.15 $BIN/fig4_speedup_g40 > experiments/fig4.txt 2> experiments/fig4.log
PILUT_SCALE=0.15 $BIN/fig5_speedup_torso > experiments/fig5.txt 2> experiments/fig5.log
PILUT_SCALE=0.15 $BIN/fig6_speedup_trisolve > experiments/fig6.txt 2> experiments/fig6.log
$BIN/fig1_coloring > experiments/fig1.txt 2>&1
$BIN/fig2_mis_trace > experiments/fig2.txt 2>&1
$BIN/fig3_structure > experiments/fig3.txt 2>&1
PILUT_SCALE=0.15 $BIN/ablation_comm > experiments/ablation_comm.txt 2> experiments/ablation_comm.log
PILUT_SCALE=0.15 $BIN/baseline_ilu0 > experiments/baseline_ilu0.txt 2> experiments/baseline_ilu0.log
PILUT_SCALE=0.15 $BIN/ablation_partition > experiments/ablation_partition.txt 2> experiments/ablation_partition.log
echo ALL_DONE
