/* The event loop's wait primitive: a level-triggered epoll set, plus the
   open-file limit that bounds how many replicas one process can host.
   Linux only (epoll_pwait2 needs kernel >= 5.11 and glibc >= 2.35). */

#define _GNU_SOURCE
#include <errno.h>
#include <stdint.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <time.h>

#define CAML_NAME_SPACE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* Interest bits shared with loop.ml. */
#define WANT_READ 1
#define WANT_WRITE 2

/* Events copied out per wait; more ready fds wait for the next round
   (epoll rotates its ready list, so none starves). */
#define MAX_EVENTS 512

value leopard_epoll_create(value unit)
{
  (void)unit;
  int fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) caml_uerror("epoll_create1", Nothing);
  return Val_int(fd);
}

static uint32_t events_of_interest(int interest)
{
  uint32_t ev = 0;
  if (interest & WANT_READ) ev |= EPOLLIN;
  if (interest & WANT_WRITE) ev |= EPOLLOUT;
  return ev;
}

/* Moves [fd] from interest [before] to [after] (bit sets of WANT_*):
   ADD from nothing, DEL to nothing, MOD otherwise. DEL of an fd the
   kernel no longer has (closed before its unwatch) is a no-op, as
   removing it from a select(2) set was. */
value leopard_epoll_ctl(value v_epfd, value v_fd, value v_before, value v_after)
{
  int fd = Int_val(v_fd), before = Int_val(v_before), after = Int_val(v_after);
  struct epoll_event ev = { .events = events_of_interest(after), .data.fd = fd };
  int op = before == 0 ? EPOLL_CTL_ADD : after == 0 ? EPOLL_CTL_DEL : EPOLL_CTL_MOD;
  if (epoll_ctl(Int_val(v_epfd), op, fd, &ev) == 0) return Val_unit;
  if (op == EPOLL_CTL_DEL && (errno == ENOENT || errno == EBADF)) return Val_unit;
  caml_uerror("epoll_ctl", Nothing);
}

/* Waits up to [timeout_ns] (no wait at 0) with the runtime lock
   released, then writes each ready fd into [fds] and its readiness
   (WANT_* bits; HUP and ERR set both, as select(2) reports them) into
   [evs]. Returns the count; 0 on timeout or EINTR. */
value leopard_epoll_wait(value v_epfd, value v_timeout_ns, value v_fds, value v_evs)
{
  CAMLparam2(v_fds, v_evs);
  struct epoll_event events[MAX_EVENTS];
  int epfd = Int_val(v_epfd);
  long timeout_ns = Long_val(v_timeout_ns);
  int cap = Wosize_val(v_fds);
  if (cap > MAX_EVENTS) cap = MAX_EVENTS;
  struct timespec ts = { .tv_sec = timeout_ns / 1000000000L, .tv_nsec = timeout_ns % 1000000000L };
  caml_enter_blocking_section();
  int k = epoll_pwait2(epfd, events, cap, &ts, NULL);
  int err = errno;
  caml_leave_blocking_section();
  if (k < 0) {
    if (err == EINTR) CAMLreturn(Val_int(0));
    caml_unix_error(err, "epoll_pwait2", Nothing);
  }
  for (int i = 0; i < k; i++) {
    uint32_t e = events[i].events;
    int ready = 0;
    if (e & (EPOLLIN | EPOLLHUP | EPOLLERR)) ready |= WANT_READ;
    if (e & (EPOLLOUT | EPOLLHUP | EPOLLERR)) ready |= WANT_WRITE;
    Field(v_fds, i) = Val_int(events[i].data.fd);
    Field(v_evs, i) = Val_int(ready);
  }
  CAMLreturn(Val_int(k));
}

/* The soft RLIMIT_NOFILE, clamped to 2^30 (Linux's own ceiling for
   open files), which also stands in for unlimited or unreadable. */
value leopard_nofile_limit(value unit)
{
  (void)unit;
  const rlim_t ceiling = (rlim_t)1 << 30;
  struct rlimit rl;
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0 || rl.rlim_cur > ceiling) return Val_long(ceiling);
  return Val_long((long)rl.rlim_cur);
}
