/*
 * A sampling profiler for one process, loaded with LD_PRELOAD.
 *
 * Its constructor arms ITIMER_PROF at 250 us of the process's CPU time and
 * installs a SIGPROF handler; the kernel delivers at most one signal per
 * scheduler tick, so the real period can be longer (4 ms at HZ=250). Each
 * signal in the window [PROFILE_START_S, PROFILE_STOP_S) of the process's
 * CPU seconds records the interrupted instruction
 * pointer, the word at the stack pointer (the return address while a
 * frameless leaf such as memset runs) and up to MAX_FRAMES return
 * addresses from the frame-pointer chain. The destructor writes one line
 * of hex addresses per sample to PROFILE_OUT and a copy of
 * /proc/self/maps to PROFILE_OUT.maps for symbolize.py.
 *
 * Only the process it is preloaded into is sampled, and only its own
 * CPU time; nothing here touches other processes or system settings.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>

#define PERIOD_US 250
#define MAX_FRAMES 48
#define SLOT (MAX_FRAMES + 2)

static uint64_t *samples;
static volatile long taken;
static double start_s, stop_s;
static long capacity;
static uintptr_t stack_lo, stack_hi;

static double env_seconds(const char *name, double fallback)
{
    const char *v = getenv(name);
    return v ? atof(v) : fallback;
}

/* The range the main thread's stack can occupy: its mapping's top, and
 * the top less the stack size limit. A sample whose stack pointer lies
 * elsewhere (another thread) keeps only its instruction pointer. */
static void find_stack(void)
{
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    if (!maps)
        return;
    while (fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        if (strstr(line, "[stack]") && sscanf(line, "%lx-%lx", &lo, &hi) == 2) {
            struct rlimit rl;
            stack_hi = hi;
            stack_lo = lo;
            if (getrlimit(RLIMIT_STACK, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY &&
                rl.rlim_cur < hi)
                stack_lo = hi - rl.rlim_cur;
        }
    }
    fclose(maps);
}

/* Everything from the interrupted stack pointer up to the stack's top is
 * mapped, so a frame pointer is followed only inside that range. */
static int in_frame_range(uintptr_t p, uintptr_t sp)
{
    return p >= sp && p + 16 <= stack_hi && (p & 7) == 0;
}

static void on_tick(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    struct timespec cpu;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
    double t = cpu.tv_sec + cpu.tv_nsec * 1e-9;
    if (t < start_s || t >= stop_s || taken >= capacity)
        return;
    const ucontext_t *uc = ctx;
    uint64_t *s = samples + taken * SLOT;
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    memset(s, 0, SLOT * sizeof *s);
    s[0] = uc->uc_mcontext.gregs[REG_RIP];
    taken++;
    if (sp < stack_lo || sp >= stack_hi)
        return;
    s[1] = *(uint64_t *)sp;
    for (int i = 2; i < SLOT && in_frame_range(fp, sp); i++) {
        uintptr_t next = *(uintptr_t *)fp;
        s[i] = *(uint64_t *)(fp + 8);
        if (next <= fp)
            break;
        fp = next;
    }
}

__attribute__((constructor)) static void sampler_start(void)
{
    start_s = env_seconds("PROFILE_START_S", 1.0);
    stop_s = env_seconds("PROFILE_STOP_S", 1e9);
    double span = (stop_s - start_s) * 1e6 / PERIOD_US;
    capacity = span > 400000 ? 400000 : (long)span;
    if (capacity <= 0)
        return;
    samples = calloc((size_t)capacity * SLOT, sizeof *samples);
    if (!samples)
        return;
    find_stack();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sampler_stop(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *out = getenv("PROFILE_OUT");
    if (!samples || !out)
        return;
    FILE *f = fopen(out, "w");
    if (!f)
        return;
    for (long i = 0; i < taken; i++) {
        const uint64_t *s = samples + i * SLOT;
        for (int j = 0; j < SLOT && (j < 2 || s[j]); j++)
            fprintf(f, j ? " %lx" : "%lx", (unsigned long)s[j]);
        fputc('\n', f);
    }
    fclose(f);
    char path[4096];
    snprintf(path, sizeof path, "%s.maps", out);
    FILE *src = fopen("/proc/self/maps", "r");
    FILE *dst = fopen(path, "w");
    char buf[4096];
    size_t n;
    while (src && dst && (n = fread(buf, 1, sizeof buf, src)) > 0)
        fwrite(buf, 1, n, dst);
    if (src)
        fclose(src);
    if (dst)
        fclose(dst);
}
