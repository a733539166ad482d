/* sigprof: a sampling profiler for hosts without `perf`.
 *
 *   gcc -O2 -shared -fPIC -o libsigprof.so prof.c
 *   PROF=1 LD_PRELOAD=$PWD/libsigprof.so ./program args...
 *   python3 sym.py sigprof.<pid>.out
 *
 * With PROF=1 in the environment the library arms ITIMER_PROF (process
 * CPU time, so idle threads are not sampled) and, on every SIGPROF,
 * records the interrupted instruction pointer. At exit it writes the
 * requested rate, the process CPU seconds, the samples and the
 * executable lines of /proc/self/maps to sigprof.<pid>.out (or
 * $PROF_OUT). Without PROF=1 it does nothing, so a stray LD_PRELOAD is
 * harmless. PROF_HZ sets the rate (default 1000). ITIMER_PROF fires on
 * scheduler ticks, so the rate reached can be far below the one asked
 * for: sym.py prints both. x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)

static unsigned long *samples;
static volatile unsigned long n_samples;
static long requested_hz;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[256];
    const char *out = getenv("PROF_OUT");
    if (out)
        snprintf(path, sizeof path, "%s", out);
    else
        snprintf(path, sizeof path, "sigprof.%d.out", (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    struct timespec cpu;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
    fprintf(f, "h %ld\n", requested_hz);
    fprintf(f, "c %ld.%09ld\n", (long)cpu.tv_sec, cpu.tv_nsec);
    unsigned long n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(f, "s %lx\n", samples[i]);
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[1024];
    while (maps && fgets(line, sizeof line, maps)) {
        char perms[8] = "";
        sscanf(line, "%*s %7s", perms);
        if (strchr(perms, 'x'))
            fprintf(f, "m %s", line);
    }
    if (maps)
        fclose(maps);
    fclose(f);
}

__attribute__((constructor)) static void arm(void) {
    const char *on = getenv("PROF");
    if (!on || strcmp(on, "1") != 0)
        return;
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    if (!samples)
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    const char *hz_env = getenv("PROF_HZ");
    long hz = hz_env ? atol(hz_env) : 1000;
    if (hz < 1 || hz > 10000)
        hz = 1000;
    requested_hz = hz;
    struct itimerval tick = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &tick, NULL);
    atexit(dump);
}
