package main

import (
	"os"
	"syscall"
	"unsafe"
)

// pacer puts the generator to sleep until a request is due. It waits on
// a Linux timerfd through the runtime's network poller: the wake-up
// has the kernel timer's precision, and the sleeping goroutine holds no
// P. The runtime timer behind time.Sleep overshoots sub-millisecond
// sleeps by up to a millisecond whenever every P is idle (the poller's
// epoll_wait timeout is in milliseconds); a nanosleep(2) call is precise
// but keeps its P until the runtime's monitor retakes it; spinning takes
// a whole CPU from the daemon.
type pacer struct {
	f *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil blocks until the tracer clock reaches deadline (ns). It may
// return early; callers re-check the clock.
func (p *pacer) sleepUntil(deadline int64) error {
	d := deadline - nowNS()
	if d <= 0 {
		return nil
	}
	spec := [4]int64{0, 0, d / 1e9, d % 1e9} // interval (none), then value
	rc, err := p.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var buf [8]byte
	_, err = p.f.Read(buf[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
