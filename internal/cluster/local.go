// In-process cluster harness: N graph servers connected through in-memory
// pipes, with per-shard stop/restart and pluggable connection wrapping so
// chaos tests (internal/faultinject) can disturb the links. This simulates
// the paper's 54-storage-server deployment inside one test process.
//
// Servers are addressable as "mem://<i>" pseudo-addresses, so the routing
// layer (shard maps carry addresses, PullShard dials its source by address)
// and the migration Driver work unchanged over in-memory pipes, and
// AddServer grows the cluster N→N+1 mid-test — the in-process mirror of
// booting a new platod2gl-server with -join.
package cluster

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

// LocalOptions configure an in-process cluster.
type LocalOptions struct {
	// Client tunes the fan-out client's fault tolerance.
	Client Options
	// WrapConn, if set, wraps each new client-side connection to shard i —
	// the hook where faultinject.Injector.WrapConn plugs in.
	WrapConn func(shard int, c net.Conn) net.Conn
	// ServiceFactory builds shard i's service; called at startup and again
	// on RestartShard. When nil, StoreFactory must be set and the service
	// is NewService(StoreFactory(i)).
	ServiceFactory func(i int) *Service
	// StoreFactory builds shard i's stores when ServiceFactory is nil.
	StoreFactory func(i int) (storage.TopologyStore, *kvstore.Store)
}

// LocalCluster is a restartable, growable in-process cluster.
type LocalCluster struct {
	opts   LocalOptions
	client *Client
	mu     sync.RWMutex // guards shards growth (AddServer)
	shards []*localShard
}

// localShard hosts one in-process graph server. Stopping it severs every
// live connection, closes the service (a crash closes its files) and fails
// future dials until restart, which discards the server's state (the
// service factory decides what is recovered, e.g. through OpenDurable).
type localShard struct {
	idx  int
	mu   sync.Mutex
	srv  *Server
	svc  *Service
	down bool
	// conns holds both endpoints of every live pipe so StopShard can sever
	// them (unblocking client calls with EOF, terminating server goroutines).
	conns []net.Conn
}

func (sh *localShard) dial(wrap func(int, net.Conn) net.Conn) (net.Conn, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.down {
		return nil, fmt.Errorf("cluster: local shard %d is down", sh.idx)
	}
	cliConn, srvConn := net.Pipe()
	var cli net.Conn = cliConn
	if wrap != nil {
		cli = wrap(sh.idx, cliConn)
	}
	sh.conns = append(sh.conns, cli, srvConn)
	go sh.srv.ServeConn(srvConn)
	return cli, nil
}

func (sh *localShard) stop() {
	sh.mu.Lock()
	sh.down = true
	svc := sh.svc
	conns := sh.conns
	sh.conns = nil
	sh.mu.Unlock()
	// Release any parked shard gates before severing connections: a write
	// goroutine parked on a gate would otherwise outlive the "crashed"
	// server (its TTL timer fires into a dead service), and the migration
	// the park served died with the process anyway.
	if svc != nil {
		svc.ReleaseAllShards()
	}
	for _, c := range conns {
		c.Close()
	}
	if svc != nil {
		svc.Close()
	}
}

func (sh *localShard) restart(svc *Service) {
	sh.mu.Lock()
	old := sh.svc
	sh.svc = svc
	sh.srv = NewServer(svc)
	sh.down = false
	sh.mu.Unlock()
	if old != nil && old != svc {
		old.ReleaseAllShards() // a restart without a prior stop must not leak parked writes
	}
}

// LocalAddr returns server i's pseudo-address ("mem://<i>") — what shard
// maps list for in-process servers.
func LocalAddr(i int) string { return fmt.Sprintf("mem://%d", i) }

// parseLocalAddr inverts LocalAddr.
func parseLocalAddr(addr string) (int, error) {
	rest, ok := strings.CutPrefix(addr, "mem://")
	if !ok {
		return 0, fmt.Errorf("cluster: %q is not a local pseudo-address", addr)
	}
	i, err := strconv.Atoi(rest)
	if err != nil {
		return 0, fmt.Errorf("cluster: bad local pseudo-address %q", addr)
	}
	return i, nil
}

// NewLocalClusterOptions spins up n in-process graph servers and a
// fault-tolerant client wired to them through (optionally wrapped)
// in-memory pipes. Dead shard connections are redialed automatically, so
// StopShard + RestartShard round-trips are transparent to the client modulo
// the errors surfaced while the shard was down. With Client.Replicas = R,
// index i is a global peer index (logical shard i/R, replica i%R) — the
// Stop/Restart/Service methods then address individual replicas.
//
// Every server advertises LocalAddr(i) and can dial its siblings by that
// address, so the shard-migration protocol runs unmodified in-process.
func NewLocalClusterOptions(n int, opts LocalOptions) *LocalCluster {
	if opts.ServiceFactory == nil {
		if opts.StoreFactory == nil {
			panic("cluster: LocalOptions needs ServiceFactory or StoreFactory")
		}
		sf := opts.StoreFactory
		opts.ServiceFactory = func(i int) *Service { return NewService(sf(i)) }
	}
	lc := &LocalCluster{opts: opts, shards: make([]*localShard, n)}
	if opts.Client.DialServer == nil {
		opts.Client.DialServer = func(addr string) Dialer {
			return lc.DialAddr(addr)
		}
	}
	lc.opts = opts
	dialers := make([]Dialer, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		sh := &localShard{idx: i}
		sh.restart(lc.newService(i))
		lc.shards[i] = sh
		dialers[i] = func() (net.Conn, error) { return sh.dial(opts.WrapConn) }
		addrs[i] = LocalAddr(i)
	}
	lc.client = NewClientOptions(nil, dialers, opts.Client)
	lc.client.SetPeerAddrs(addrs)
	return lc
}

// newService builds server i's service with its local address and the
// mem:// dial resolver wired in.
func (lc *LocalCluster) newService(i int) *Service {
	svc := lc.opts.ServiceFactory(i)
	svc.SetAdvertise(LocalAddr(i))
	svc.SetDialResolver(func(addr string) Dialer { return lc.DialAddr(addr) })
	return svc
}

// shard returns server i's host, or nil when i is out of range.
func (lc *LocalCluster) shard(i int) *localShard {
	lc.mu.RLock()
	defer lc.mu.RUnlock()
	if i < 0 || i >= len(lc.shards) {
		return nil
	}
	return lc.shards[i]
}

// Client returns the cluster's fan-out client.
func (lc *LocalCluster) Client() *Client { return lc.client }

// NumServers returns the current server count (grows with AddServer).
func (lc *LocalCluster) NumServers() int {
	lc.mu.RLock()
	defer lc.mu.RUnlock()
	return len(lc.shards)
}

// Dialer returns a Dialer to peer i through the cluster's in-memory pipes,
// wrapped like client connections — what a restarted replica passes to
// SyncFromPeer to catch up from a live sibling.
func (lc *LocalCluster) Dialer(i int) Dialer {
	sh := lc.shard(i)
	return func() (net.Conn, error) {
		if sh == nil {
			return nil, fmt.Errorf("cluster: no local server %d", i)
		}
		return sh.dial(lc.opts.WrapConn)
	}
}

// DialAddr returns a Dialer to the server advertising the given mem://
// pseudo-address. Resolution happens per dial, so an address minted by
// AddServer works even if the Dialer was built earlier.
func (lc *LocalCluster) DialAddr(addr string) Dialer {
	return func() (net.Conn, error) {
		i, err := parseLocalAddr(addr)
		if err != nil {
			return nil, err
		}
		sh := lc.shard(i)
		if sh == nil {
			return nil, fmt.Errorf("cluster: no local server at %s", addr)
		}
		return sh.dial(lc.opts.WrapConn)
	}
}

// AddServer boots one more in-process graph server (index NumServers) and
// returns its pseudo-address — the harness analogue of starting a new
// platod2gl-server -join. The new server owns no shards until a migration
// Driver assigns it some (AddServer + Rebalance, or Grow).
func (lc *LocalCluster) AddServer() string {
	lc.mu.Lock()
	i := len(lc.shards)
	sh := &localShard{idx: i}
	sh.restart(lc.newService(i))
	lc.shards = append(lc.shards, sh)
	lc.mu.Unlock()
	return LocalAddr(i)
}

// Service returns shard i's current service (nil while stopped).
func (lc *LocalCluster) Service(i int) *Service {
	sh := lc.shard(i)
	if sh == nil {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.down {
		return nil
	}
	return sh.svc
}

// StopShard simulates a shard crash: every live connection is severed and
// new dials fail until RestartShard.
func (lc *LocalCluster) StopShard(i int) { lc.shard(i).stop() }

// RestartShard brings shard i back with a fresh service from the factory
// (which may recover state from a snapshot or WAL).
func (lc *LocalCluster) RestartShard(i int) {
	lc.shard(i).restart(lc.newService(i))
}

// Shutdown closes the client and stops every shard.
func (lc *LocalCluster) Shutdown() {
	lc.client.Close()
	lc.mu.RLock()
	shards := append([]*localShard(nil), lc.shards...)
	lc.mu.RUnlock()
	for _, sh := range shards {
		sh.stop()
	}
}

// NewLocalCluster spins up n in-process graph servers connected through
// in-memory pipes and returns a client plus a shutdown function, with
// legacy (no-retry) client semantics. factory builds each server's
// topology store.
func NewLocalCluster(n int, factory func(i int) (storage.TopologyStore, *kvstore.Store)) (*Client, func()) {
	lc := NewLocalClusterOptions(n, LocalOptions{StoreFactory: factory})
	return lc.Client(), lc.Shutdown
}
