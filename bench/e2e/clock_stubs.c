/* A monotonic nanosecond clock for the benchmark: Unix.gettimeofday only
   resolves microseconds, which quantizes the ~10 us statement latencies
   this benchmark reports. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double ldvbench_now_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value ldvbench_now(value unit)
{
  return caml_copy_double(ldvbench_now_unboxed(unit));
}
