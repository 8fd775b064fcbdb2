# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ holds only the benchmark binaries: `for b in build/bench/*`
# then runs every experiment with no CMake metadata in the way.
function(coyote_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE ${ARGN})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

coyote_bench(bench_table2_reconfig_throughput coyote_fabric)
coyote_bench(bench_fig7a_hbm_scaling coyote_runtime coyote_services)
coyote_bench(bench_fig7b_synthesis_time coyote_synth)
coyote_bench(bench_table3_shell_reconfig coyote_runtime coyote_services coyote_synth)
coyote_bench(bench_fig8_aes_ecb_sharing coyote_runtime coyote_services)
coyote_bench(bench_fig10_aes_cbc coyote_runtime coyote_services)
coyote_bench(bench_fig11_hll coyote_runtime coyote_services coyote_synth)
coyote_bench(bench_fig12_nn_inference coyote_hlscompat)
coyote_bench(bench_ablations coyote_runtime coyote_services)
coyote_bench(bench_extensions coyote_runtime coyote_services coyote_net coyote_synth)
coyote_bench(bench_micro_cores coyote_services coyote_net coyote_mmu benchmark::benchmark)
coyote_bench(bench_table1_features coyote_runtime coyote_services coyote_synth)
coyote_bench(bench_recovery_mttr coyote_runtime coyote_services coyote_synth)
coyote_bench(bench_migration coyote_runtime coyote_services coyote_net)
coyote_bench(bench_sim_engine coyote_sim coyote_axi)
coyote_bench(bench_serving coyote_runtime coyote_services coyote_net)
coyote_bench(bench_tiering coyote_mmu)

# Tier-1 pin of the simulated outputs: bench_serving, bench_migration,
# bench_tiering and bench_recovery_mttr must reproduce the committed baselines
# (bench/baselines/) bit for bit, "wall_ host-timing lines excepted.
# Regenerate a baseline only with a change that is meant to move the model,
# and say so in CHANGES.md.
set(COYOTE_BASELINE_DIR ${CMAKE_BINARY_DIR}/bench_baselines)
file(MAKE_DIRECTORY ${COYOTE_BASELINE_DIR})
add_test(NAME bench_baselines
  COMMAND sh ${CMAKE_SOURCE_DIR}/bench/check_baselines.sh
    $<TARGET_FILE:bench_serving> ${CMAKE_SOURCE_DIR}/bench/baselines/serving.json
    $<TARGET_FILE:bench_migration> ${CMAKE_SOURCE_DIR}/bench/baselines/migration.json
    $<TARGET_FILE:bench_tiering> ${CMAKE_SOURCE_DIR}/bench/baselines/tiering.json
    $<TARGET_FILE:bench_recovery_mttr> ${CMAKE_SOURCE_DIR}/bench/baselines/recovery.json
  WORKING_DIRECTORY ${COYOTE_BASELINE_DIR})
set_tests_properties(bench_baselines PROPERTIES TIMEOUT ${COYOTE_TEST_TIMEOUT})
