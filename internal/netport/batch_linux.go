//go:build linux && (amd64 || arm64)

// Linux fast path: recvmmsg/sendmmsg move a whole burst of datagrams per
// syscall, and SO_REUSEPORT lets the kernel hash incoming flows across a
// group of per-worker sockets — RSS fan-out done by the kernel, with no
// software distributor on the hot path.
//
// The stdlib syscall package on amd64 predates sendmmsg and
// SO_REUSEPORT, so the numbers are declared locally (batch_sysnum_*.go)
// rather than pulled from an external module; everything here is plain
// stdlib. The build is gated to the two 64-bit layouts whose
// syscall.Msghdr matches the kernel mmsghdr padding below; other
// GOOS/GOARCH combinations take the portable fallback in batch_other.go.
package netport

import (
	"context"
	"net"
	"sync"
	"syscall"
	"unsafe"
)

// reusePortAvailable reports whether Open can build an SO_REUSEPORT
// socket group on this platform.
const reusePortAvailable = true

// soReusePort is SO_REUSEPORT (0xf on every non-MIPS Linux arch; the
// frozen syscall package only exports it for some of them).
const soReusePort = 0xf

// msgDontwait keeps the batched syscalls non-blocking; blocking is the
// runtime netpoller's job (RawConn parks the goroutine until the socket
// is ready, exactly as net.UDPConn.Read would).
const msgDontwait = syscall.MSG_DONTWAIT

// mmsghdr mirrors struct mmsghdr: a msghdr plus the per-message byte
// count the kernel deposits on receive. On amd64/arm64 the struct is
// padded to 8-byte alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	ln  uint32
	_   [4]byte
}

// linuxConn implements batchConn over recvmmsg/sendmmsg on the socket's
// raw fd. The rx staging arrays are owned by the single receive loop
// that reads the conn; the tx staging is shared by every worker that
// transmits through this conn (one socket serves all queues in
// distributor mode) and is guarded by txMu — the kernel would serialize
// concurrent sendmmsg on one socket anyway.
//
// The callbacks RawConn.Read/Write run are built once, at construction:
// a closure written inline escapes through the RawConn interface and
// costs a heap allocation per call. What a call would have captured —
// the burst length in, the count and errno out — travels in the rx*/tx*
// fields instead, under the same ownership as the staging arrays.
type linuxConn struct {
	rc syscall.RawConn

	rxHdrs  []mmsghdr
	rxIovs  []syscall.Iovec
	rxVlen  int
	rxN     int
	rxErrno syscall.Errno
	rxFn    func(fd uintptr) bool

	txMu    sync.Mutex
	txHdrs  []mmsghdr
	txIovs  []syscall.Iovec
	txVlen  int
	txN     int
	txErrno syscall.Errno
	txFn    func(fd uintptr) bool
	txSa4   syscall.RawSockaddrInet4
	txSa6   syscall.RawSockaddrInet6
}

// maxBatch bounds one syscall's burst; recvmmsg's vlen is capped at
// UIO_MAXIOV (1024) by the kernel, but bursts are sized to the mempool
// cache anyway — 512 already means half a ring per syscall.
const maxBatch = 512

func newBatchConn(c *net.UDPConn) (batchConn, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	lc := &linuxConn{rc: rc}
	lc.rxFn, lc.txFn = lc.recvmmsg, lc.sendmmsg
	return lc, nil
}

// recvmmsg is the RawConn.Read callback: one non-blocking recvmmsg over
// rxHdrs[:rxVlen], result in rxN/rxErrno.
func (lc *linuxConn) recvmmsg(fd uintptr) bool {
	r, _, e := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&lc.rxHdrs[0])), uintptr(lc.rxVlen), msgDontwait, 0, 0)
	if e == syscall.EAGAIN {
		return false // park on the netpoller until readable
	}
	lc.rxN, lc.rxErrno = int(r), e
	return true
}

// sendmmsg is the RawConn.Write callback (txMu held by WriteBatch): one
// non-blocking sendmmsg over txHdrs[:txVlen], result in txN/txErrno.
func (lc *linuxConn) sendmmsg(fd uintptr) bool {
	r, _, e := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&lc.txHdrs[0])), uintptr(lc.txVlen), msgDontwait, 0, 0)
	if e == syscall.EAGAIN {
		return false // park until writable, then retry
	}
	lc.txN, lc.txErrno = int(r), e
	return true
}

func (lc *linuxConn) BatchCap() int { return maxBatch }

func (lc *linuxConn) ReadBatch(bufs [][]byte, lens []int) (int, error) {
	vlen := min(len(bufs), maxBatch)
	if vlen == 0 {
		return 0, nil
	}
	if cap(lc.rxHdrs) < vlen {
		lc.rxHdrs = make([]mmsghdr, vlen)
		lc.rxIovs = make([]syscall.Iovec, vlen)
	}
	hdrs, iovs := lc.rxHdrs[:vlen], lc.rxIovs[:vlen]
	for i := 0; i < vlen; i++ {
		iovs[i].Base = &bufs[i][0]
		iovs[i].SetLen(len(bufs[i]))
		hdrs[i] = mmsghdr{}
		hdrs[i].hdr.Iov = &iovs[i]
		hdrs[i].hdr.Iovlen = 1
	}
	lc.rxVlen = vlen
	if err := lc.rc.Read(lc.rxFn); err != nil {
		return 0, err
	}
	if lc.rxErrno != 0 {
		return 0, lc.rxErrno
	}
	for i := 0; i < lc.rxN; i++ {
		lens[i] = int(hdrs[i].ln)
	}
	return lc.rxN, nil
}

func (lc *linuxConn) WriteBatch(payloads [][]byte, dst *net.UDPAddr) (int, error) {
	vlen := min(len(payloads), maxBatch)
	if vlen == 0 {
		return 0, nil
	}
	lc.txMu.Lock()
	defer lc.txMu.Unlock()
	if cap(lc.txHdrs) < vlen {
		lc.txHdrs = make([]mmsghdr, vlen)
		lc.txIovs = make([]syscall.Iovec, vlen)
	}
	hdrs, iovs := lc.txHdrs[:vlen], lc.txIovs[:vlen]
	var name *byte
	var namelen uint32
	if dst != nil {
		name, namelen = lc.sockaddr(dst)
	}
	for i := 0; i < vlen; i++ {
		iovs[i].Base = &payloads[i][0]
		iovs[i].SetLen(len(payloads[i]))
		hdrs[i] = mmsghdr{}
		hdrs[i].hdr.Iov = &iovs[i]
		hdrs[i].hdr.Iovlen = 1
		hdrs[i].hdr.Name = name
		hdrs[i].hdr.Namelen = namelen
	}
	lc.txVlen = vlen
	if err := lc.rc.Write(lc.txFn); err != nil {
		return 0, err
	}
	if lc.txErrno != 0 {
		return 0, lc.txErrno
	}
	return lc.txN, nil
}

// sockaddr encodes dst into the conn's raw sockaddr scratch (txMu held).
func (lc *linuxConn) sockaddr(dst *net.UDPAddr) (*byte, uint32) {
	if ip4 := dst.IP.To4(); ip4 != nil {
		lc.txSa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		lc.txSa4.Port = uint16(dst.Port>>8) | uint16(dst.Port&0xff)<<8
		copy(lc.txSa4.Addr[:], ip4)
		return (*byte)(unsafe.Pointer(&lc.txSa4)), syscall.SizeofSockaddrInet4
	}
	lc.txSa6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	lc.txSa6.Port = uint16(dst.Port>>8) | uint16(dst.Port&0xff)<<8
	copy(lc.txSa6.Addr[:], dst.IP.To16())
	return (*byte)(unsafe.Pointer(&lc.txSa6)), syscall.SizeofSockaddrInet6
}

// listenReusePort binds a UDP socket with SO_REUSEPORT set before bind,
// so a group of sockets can share one port and the kernel hashes flows
// across them.
func listenReusePort(address string) (*net.UDPConn, error) {
	var soErr error
	lc := net.ListenConfig{Control: func(_, _ string, c syscall.RawConn) error {
		if err := c.Control(func(fd uintptr) {
			soErr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
		}); err != nil {
			return err
		}
		return soErr
	}}
	pc, err := lc.ListenPacket(context.Background(), "udp", address)
	if err != nil {
		return nil, err
	}
	return pc.(*net.UDPConn), nil
}
