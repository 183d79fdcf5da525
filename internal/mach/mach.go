// Package mach models the Platform 2012 (P2012) MPSoC of the paper's
// Figure 1: a general-purpose host processor plus a fabric of clusters of
// configurable PEs (STxP70 in the paper). PEs of a cluster share an L1
// memory; clusters communicate through L2; host↔fabric transfers go
// through DMA engines and the L3 memory.
//
// The model is functional + cost-annotated: computation and token
// transfers charge simulated time to the owning simulation process, and
// the machine keeps per-memory/DMA counters, which is what experiment F1
// reports and what gives the intrusiveness benchmarks a realistic shape.
package mach

import (
	"fmt"
	"strconv"

	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
)

// MemLevel identifies a level of the memory hierarchy.
type MemLevel int

const (
	// L1 is the per-cluster shared memory.
	L1 MemLevel = iota
	// L2 is the inter-cluster fabric memory.
	L2
	// L3 is the external memory reachable over DMA.
	L3
)

func (l MemLevel) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	default:
		return fmt.Sprintf("MemLevel(%d)", int(l))
	}
}

// Config sets the platform shape and timing. Zero fields take defaults
// from DefaultConfig.
type Config struct {
	Clusters      int // number of fabric clusters
	PEsPerCluster int // processing elements per cluster

	CycleTime  sim.Duration // cost of one executed statement on a PE
	L1Latency  sim.Duration // per-word access in cluster L1
	L2Latency  sim.Duration // per-word access in fabric L2
	L3Latency  sim.Duration // per-word access in external L3
	DMASetup   sim.Duration // fixed cost of programming a DMA transfer
	DMAPerWord sim.Duration // streaming cost per word of a DMA transfer
}

// DefaultConfig mirrors the published P2012 shape (4 clusters of 16
// STxP70 PEs at ~500 MHz) with plausible latencies.
func DefaultConfig() Config {
	return Config{
		Clusters:      4,
		PEsPerCluster: 16,
		CycleTime:     2 * sim.Nanosecond,
		L1Latency:     10 * sim.Nanosecond,
		L2Latency:     50 * sim.Nanosecond,
		L3Latency:     150 * sim.Nanosecond,
		DMASetup:      200 * sim.Nanosecond,
		DMAPerWord:    4 * sim.Nanosecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Clusters == 0 {
		c.Clusters = d.Clusters
	}
	if c.PEsPerCluster == 0 {
		c.PEsPerCluster = d.PEsPerCluster
	}
	if c.CycleTime == 0 {
		c.CycleTime = d.CycleTime
	}
	if c.L1Latency == 0 {
		c.L1Latency = d.L1Latency
	}
	if c.L2Latency == 0 {
		c.L2Latency = d.L2Latency
	}
	if c.L3Latency == 0 {
		c.L3Latency = d.L3Latency
	}
	if c.DMASetup == 0 {
		c.DMASetup = d.DMASetup
	}
	if c.DMAPerWord == 0 {
		c.DMAPerWord = d.DMAPerWord
	}
	return c
}

// Memory is one level instance with access counters.
type Memory struct {
	Name    string
	Level   MemLevel
	Latency sim.Duration
	Reads   uint64
	Writes  uint64
}

// PE is a processing element. The host processor is modelled as a PE
// with Cluster == nil.
type PE struct {
	ID      int      // global PE id (host is -1)
	Cluster *Cluster // nil for the host
	// Assigned counts actors mapped onto this PE (for load display).
	Assigned int
}

// IsHost reports whether this is the host-side processor.
func (pe *PE) IsHost() bool { return pe.Cluster == nil }

func (pe *PE) String() string {
	if pe.IsHost() {
		return "host"
	}
	return fmt.Sprintf("cluster%d.pe%d", pe.Cluster.ID, pe.ID)
}

// Cluster groups PEs around a shared L1 memory.
type Cluster struct {
	ID  int
	PEs []*PE
	L1m *Memory
}

// DMAStats counts host↔fabric DMA activity.
type DMAStats struct {
	Transfers uint64
	Words     uint64
}

// Machine is the whole platform.
type Machine struct {
	K        *sim.Kernel
	Cfg      Config
	Host     *PE
	Clusters []*Cluster
	L2m      *Memory
	L3m      *Memory
	DMA      DMAStats

	nextPE int      // round-robin mapping cursor
	mems   []Memory // every cluster's L1, then L2 and L3 (MemStats order)
}

// New builds a machine on a simulation kernel. Its PEs, clusters and
// memories each live in one slab.
func New(k *sim.Kernel, cfg Config) *Machine {
	cfg = cfg.withDefaults()
	nc, np := cfg.Clusters, cfg.PEsPerCluster
	mems := make([]Memory, nc+2) // every cluster's L1, then L2 and L3
	mems[nc] = Memory{Name: "L2", Level: L2, Latency: cfg.L2Latency}
	mems[nc+1] = Memory{Name: "L3", Level: L3, Latency: cfg.L3Latency}
	m := &Machine{
		K:        k,
		Cfg:      cfg,
		Host:     &PE{ID: -1},
		Clusters: make([]*Cluster, nc),
		L2m:      &mems[nc],
		L3m:      &mems[nc+1],
		mems:     mems,
	}
	clusters := make([]Cluster, nc)
	pes := make([]PE, nc*np)
	pePtrs := make([]*PE, nc*np)
	for c := range clusters {
		cl := &clusters[c]
		mems[c] = Memory{Name: "cluster" + strconv.Itoa(c) + ".L1", Level: L1, Latency: cfg.L1Latency}
		*cl = Cluster{ID: c, PEs: pePtrs[c*np : (c+1)*np : (c+1)*np], L1m: &mems[c]}
		for p := range cl.PEs {
			id := c*np + p
			pes[id] = PE{ID: id, Cluster: cl}
			cl.PEs[p] = &pes[id]
		}
		m.Clusters[c] = cl
	}
	if rec := k.Observer(); rec != nil {
		m.registerObsMetrics(rec)
	}
	return m
}

// memSeries is the per-memory metric family; dmaSeries the DMA engine's
// counters.
var (
	memSeries = []obs.Series{
		{Name: "mach_mem_reads_words_total", Help: "words read per memory", Type: obs.TypeCounter},
		{Name: "mach_mem_writes_words_total", Help: "words written per memory", Type: obs.TypeCounter},
	}
	dmaSeries = []obs.Series{
		{Name: "mach_dma_transfers_total", Help: "host-fabric DMA transfers", Type: obs.TypeCounter},
		{Name: "mach_dma_words_total", Help: "words moved by DMA", Type: obs.TypeCounter},
	}
)

// registerObsMetrics publishes memory and DMA counters into the kernel's
// observability registry (function-backed: the Transfer hot path keeps
// its plain counters).
func (m *Machine) registerObsMetrics(rec *obs.Recorder) {
	reg := rec.Metrics
	mems := m.mems
	reg.RegisterFamily(obs.Family{
		Series: memSeries, Label: "mem", Rows: len(mems),
		Value: func(i int) string { return mems[i].Name },
		Read: func(i, col int) float64 {
			if col == 0 {
				return float64(mems[i].Reads)
			}
			return float64(mems[i].Writes)
		},
	})
	reg.RegisterFamily(obs.Family{
		Series: dmaSeries, Rows: 1,
		Read: func(_, col int) float64 {
			if col == 0 {
				return float64(m.DMA.Transfers)
			}
			return float64(m.DMA.Words)
		},
	})
}

// PEs returns every fabric PE in id order.
func (m *Machine) PEs() []*PE {
	var out []*PE
	for _, c := range m.Clusters {
		out = append(out, c.PEs...)
	}
	return out
}

// PEByID finds a fabric PE by global id (or the host for -1).
func (m *Machine) PEByID(id int) *PE {
	if id == -1 {
		return m.Host
	}
	for _, c := range m.Clusters {
		for _, pe := range c.PEs {
			if pe.ID == id {
				return pe
			}
		}
	}
	return nil
}

// MapNext assigns the next actor to a fabric PE round-robin across
// clusters first (so sibling actors spread over the fabric the way the
// PEDF runtime distributes filters).
func (m *Machine) MapNext() *PE {
	// Interleave clusters: pe order c0p0, c1p0, c2p0, ..., c0p1, ...
	nc := len(m.Clusters)
	np := m.Cfg.PEsPerCluster
	if nc*np == 0 {
		return m.Host
	}
	i := m.nextPE % (nc * np)
	m.nextPE++
	cl := m.Clusters[i%nc]
	pe := cl.PEs[(i/nc)%np]
	pe.Assigned++
	return pe
}

// SpawnOn starts a simulation process bound to a PE; the PE is stored in
// the process Tag so debuggers can display the execution context.
func (m *Machine) SpawnOn(pe *PE, name string, fn func(*sim.Proc)) *sim.Proc {
	p := m.K.Spawn(name, fn)
	p.Tag = pe
	return p
}

// Compute charges n statement-execution cycles to the calling process.
func (m *Machine) Compute(p *sim.Proc, n int) {
	m.ComputeOn(p, nil, n)
}

// ComputeOn is Compute with PE attribution, which is where the PE fault
// injection point lives: a slow-PE fault multiplies the charged cycles,
// a fail-PE fault panics the Nth compute issued on the element (caught
// by the filter loop's crash containment, so it surfaces as a debugger
// stop event rather than killing the process host).
func (m *Machine) ComputeOn(p *sim.Proc, pe *PE, n int) {
	if n <= 0 {
		return
	}
	d := sim.Duration(n) * m.Cfg.CycleTime
	if pe != nil {
		if fi := m.K.Faults(); fi != nil {
			factor, fail := fi.OnCompute(uint64(m.K.Now()), pe.ID)
			if fail {
				panic(fmt.Errorf("fault: pe %d failed during compute", pe.ID))
			}
			if factor > 1 {
				d *= sim.Duration(factor)
			}
		}
	}
	p.Sleep(d)
}

// transferClass classifies a transfer between two PEs.
func transferClass(src, dst *PE) MemLevel {
	switch {
	case src.IsHost() || dst.IsHost():
		return L3
	case src.Cluster == dst.Cluster:
		return L1
	default:
		return L2
	}
}

// TransferCost returns the simulated cost of moving `words` 32-bit words
// from src to dst, without charging it (the link layer uses this to
// decide, then calls Transfer).
func (m *Machine) TransferCost(src, dst *PE, words int) sim.Duration {
	if words <= 0 {
		words = 1
	}
	switch transferClass(src, dst) {
	case L1:
		return sim.Duration(words) * m.Cfg.L1Latency
	case L2:
		return sim.Duration(words) * m.Cfg.L2Latency
	default:
		return m.Cfg.DMASetup + sim.Duration(words)*(m.Cfg.DMAPerWord+m.Cfg.L3Latency)
	}
}

// Transfer charges the cost of a src→dst move to the calling process and
// updates the memory/DMA counters.
func (m *Machine) Transfer(p *sim.Proc, src, dst *PE, words int) {
	if words <= 0 {
		words = 1
	}
	cost := m.TransferCost(src, dst, words)
	lvl := transferClass(src, dst)
	if lvl == L3 {
		if fi := m.K.Faults(); fi != nil {
			if d := fi.OnDMA(uint64(m.K.Now())); d > 0 {
				cost += sim.Duration(d)
			}
		}
	}
	switch lvl {
	case L1:
		mem := src.Cluster.L1m
		mem.Writes += uint64(words)
		mem.Reads += uint64(words)
	case L2:
		m.L2m.Writes += uint64(words)
		m.L2m.Reads += uint64(words)
	default:
		m.L3m.Writes += uint64(words)
		m.L3m.Reads += uint64(words)
		m.DMA.Transfers++
		m.DMA.Words += uint64(words)
	}
	if rec := m.K.Observer(); rec.Wants(obs.KTransfer) {
		rec.Record(obs.Event{
			At: uint64(m.K.Now()), Kind: obs.KTransfer, PE: int32(dst.ID),
			Link: int32(lvl), Arg: int64(words), Arg2: int64(cost),
			Actor: p.Name(),
		})
	}
	p.Sleep(cost)
}

// Describe renders the platform inventory (experiment F1's table).
func (m *Machine) Describe() string {
	s := fmt.Sprintf("P2012-like platform: host + %d cluster(s) x %d PE(s)\n",
		len(m.Clusters), m.Cfg.PEsPerCluster)
	s += fmt.Sprintf("  cycle: %s  L1: %s/word  L2: %s/word  L3: %s/word  DMA: %s + %s/word\n",
		m.Cfg.CycleTime, m.Cfg.L1Latency, m.Cfg.L2Latency, m.Cfg.L3Latency,
		m.Cfg.DMASetup, m.Cfg.DMAPerWord)
	for _, c := range m.Clusters {
		s += fmt.Sprintf("  cluster %d: %d PEs sharing %s\n", c.ID, len(c.PEs), c.L1m.Name)
	}
	return s
}

// MemStats returns every memory with its counters (L1s first, then L2, L3).
func (m *Machine) MemStats() []*Memory {
	out := make([]*Memory, len(m.mems))
	for i := range m.mems {
		out[i] = &m.mems[i]
	}
	return out
}
