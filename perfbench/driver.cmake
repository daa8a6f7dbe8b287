# Benchmark driver target, included into the repository's CMake project by
# inject.cmake (see run.py). It only links the product libraries.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
add_executable(perfbench_driver
  ${PERFBENCH_DIR}/driver.cpp
  ${PERFBENCH_DIR}/fleet.cpp
  ${PERFBENCH_DIR}/iss.cpp
)
target_link_libraries(perfbench_driver PRIVATE
  iw_fleet_long iw_fleet iw_core iw_kernels iw_nn iw_rvsim_analysis iw_rvsim
  iw_asmx iw_platform iw_common Threads::Threads)
# Recorded in the host fingerprint of every result.
target_compile_definitions(perfbench_driver PRIVATE
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
  PERFBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}")
