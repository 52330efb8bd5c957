/* Processor affinity of the calling thread, for perfbench's measured
   passes.  Linux only; elsewhere pinning reports failure and the
   passes float as usual. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>

static cpu_set_t saved;
static int have_saved = 0;

/* Pin the calling thread to the [k]-th processor (modulo their number)
   of those it was allowed before the first pin; false if refused. */
value perfbench_pin(value k)
{
  cpu_set_t set;
  int n, want, cpu;
  if (!have_saved) {
    if (sched_getaffinity(0, sizeof saved, &saved) != 0) return Val_false;
    have_saved = 1;
  }
  n = CPU_COUNT(&saved);
  if (n == 0) return Val_false;
  want = Int_val(k) % n;
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &saved) && want-- == 0) break;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

/* Give the calling thread back the processors it had before [pin]. */
value perfbench_unpin(value unit)
{
  (void)unit;
  if (have_saved) sched_setaffinity(0, sizeof saved, &saved);
  return Val_unit;
}

#else

value perfbench_pin(value k) { (void)k; return Val_false; }
value perfbench_unpin(value unit) { (void)unit; return Val_unit; }

#endif
