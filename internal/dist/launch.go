package dist

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// WorkerSentinel is the argv[1] marker a re-exec'd worker process recognizes
// itself by (JoinWorker). Binaries embedding the distributed runner must call
// JoinWorker before any other argument parsing.
const WorkerSentinel = "nifdy-dist-worker-v1"

// Cluster is the launcher's handle on a set of worker processes: one control
// connection per worker plus the process handles. Workers communicate with
// each other directly over the peer mesh; the launcher only drives the
// control protocol (send a spec, issue run commands, gather records).
type Cluster struct {
	cmds []*exec.Cmd
	ctrl []*Conn
}

// Launch re-executes this binary procs times as workers (argv:
// [WorkerSentinel, rank, procs]) with a full peer socket mesh and per-worker
// control sockets passed as inherited descriptors: fd 3 is the control
// connection, fds 4.. the peer sockets in ascending peer rank.
func Launch(procs int) (*Cluster, error) {
	if procs < 1 {
		return nil, fmt.Errorf("dist: launch of %d workers", procs)
	}
	// Child descriptor lists, per worker: peer sockets in ascending peer
	// order; the control socket is prepended last.
	peerFiles := make([][]*os.File, procs)
	c := &Cluster{ctrl: make([]*Conn, procs)}
	fail := func(err error) (*Cluster, error) {
		for _, cmd := range c.cmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
		for _, cc := range c.ctrl {
			if cc != nil {
				cc.Close()
			}
		}
		for r := range peerFiles {
			for _, f := range peerFiles[r] {
				f.Close()
			}
		}
		return nil, err
	}
	for i := 0; i < procs; i++ {
		for j := i + 1; j < procs; j++ {
			a, b, err := socketpair()
			if err != nil {
				return fail(fmt.Errorf("dist: peer socketpair: %w", err))
			}
			peerFiles[i] = append(peerFiles[i], a)
			peerFiles[j] = append(peerFiles[j], b)
		}
	}
	for r := 0; r < procs; r++ {
		pc, wc, err := socketpair()
		if err != nil {
			return fail(fmt.Errorf("dist: control socketpair: %w", err))
		}
		c.ctrl[r] = newConn(pc)
		cmd := exec.Command(os.Args[0], WorkerSentinel, strconv.Itoa(r), strconv.Itoa(procs))
		cmd.ExtraFiles = append([]*os.File{wc}, peerFiles[r]...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			wc.Close()
			return fail(fmt.Errorf("dist: start worker %d: %w", r, err))
		}
		c.cmds = append(c.cmds, cmd)
		wc.Close()
	}
	// The workers hold their own copies now; release the launcher's.
	for r := range peerFiles {
		for _, f := range peerFiles[r] {
			f.Close()
		}
	}
	return c, nil
}

// Procs reports the number of workers.
func (c *Cluster) Procs() int { return len(c.cmds) }

// Send transmits one control frame to worker rank.
func (c *Cluster) Send(rank int, b []byte) error { return c.ctrl[rank].send(b) }

// Recv reads one control frame from worker rank. The returned buffer is
// valid until the next Recv from the same rank.
func (c *Cluster) Recv(rank int) ([]byte, error) { return c.ctrl[rank].readFrame() }

// Wait waits for every worker to exit and returns the first failure.
func (c *Cluster) Wait() error {
	var first error
	for r, cmd := range c.cmds {
		if err := cmd.Wait(); err != nil && first == nil {
			first = fmt.Errorf("dist: worker %d: %w", r, err)
		}
	}
	return first
}

// Kill forcibly terminates every worker (peer connection teardown cascades
// the abort to any survivor blocked in an exchange).
func (c *Cluster) Kill() {
	for _, cmd := range c.cmds {
		cmd.Process.Kill()
	}
}

// Close closes the control connections (workers see EOF and exit) and waits.
func (c *Cluster) Close() error {
	for _, cc := range c.ctrl {
		cc.Close()
	}
	return c.Wait()
}

// Worker is a worker process's side of the mesh: its rank, the control
// connection back to the launcher, and one connection per peer.
type Worker struct {
	Rank  int
	Procs int
	ctrl  *Conn
	peers []*Conn // indexed by rank; self entry nil
}

// JoinWorker inspects argv and, when this process is a Launch-spawned worker,
// adopts the inherited descriptors and returns the Worker handle. Returns
// (nil, false) in ordinary (launcher or standalone) processes. Call first
// thing in main, before flag parsing.
func JoinWorker() (*Worker, bool) {
	if len(os.Args) != 4 || os.Args[1] != WorkerSentinel {
		return nil, false
	}
	rank := mustAtoi(os.Args[2])
	procs := mustAtoi(os.Args[3])
	if rank < 0 || procs < 1 || rank >= procs {
		panic(fmt.Sprintf("dist: bad worker identity %d/%d", rank, procs))
	}
	w := &Worker{
		Rank:  rank,
		Procs: procs,
		ctrl:  newConn(os.NewFile(3, "dist-ctrl")),
		peers: make([]*Conn, procs),
	}
	fd := uintptr(4)
	for p := 0; p < procs; p++ {
		if p == rank {
			continue
		}
		w.peers[p] = newConn(os.NewFile(fd, fmt.Sprintf("dist-peer-%d", p)))
		fd++
	}
	return w, true
}

func mustAtoi(s string) int {
	v, err := strconv.Atoi(s)
	if err != nil {
		panic(fmt.Sprintf("dist: malformed worker argv %q", s))
	}
	return v
}

// peer returns the connection to worker r.
func (w *Worker) peer(r int) *Conn { return w.peers[r] }

// ReadControl reads one frame from the launcher; an error (including EOF on
// launcher death) means the run is over.
func (w *Worker) ReadControl() ([]byte, error) { return w.ctrl.readFrame() }

// SendControl sends one frame to the launcher.
func (w *Worker) SendControl(b []byte) error { return w.ctrl.send(b) }

// Close tears down every connection.
func (w *Worker) Close() {
	w.ctrl.Close()
	for _, p := range w.peers {
		if p != nil {
			p.Close()
		}
	}
}
