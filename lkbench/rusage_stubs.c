/* Process facts the OCaml standard library does not reach.

   Peak resident set sizes for the result's peak_rss_mb: the bench
   process itself, and the largest of its reaped children (campaign
   shard workers).  Linux reports ru_maxrss in KiB.

   CPU time for every timing: the bench process's own, read with
   nanosecond resolution, and that of its reaped children.  On a
   virtual machine with paravirtual steal-time accounting neither
   counts the time the host ran something else, which wall time
   does. */

#define _GNU_SOURCE
#include <time.h>
#include <sys/resource.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

static value maxrss(int who)
{
  struct rusage ru;
  if (getrusage(who, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}

value lkbench_maxrss_self(value unit)
{
  (void)unit;
  return maxrss(RUSAGE_SELF);
}

value lkbench_maxrss_children(value unit)
{
  (void)unit;
  return maxrss(RUSAGE_CHILDREN);
}

/* User plus system CPU seconds of this process. */
value lkbench_cpu_self(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return caml_copy_double(0.);
  return caml_copy_double((double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec);
}

/* User plus system CPU seconds of every child reaped so far. */
value lkbench_cpu_children(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return caml_copy_double(0.);
  return caml_copy_double((double)(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)
                          + 1e-6 * (double)(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec));
}
