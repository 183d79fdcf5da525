package h264

import (
	"fmt"
	"strings"

	"dfdbg/internal/filterc"
	"dfdbg/internal/pedf"
)

// App is the elaborated PEDF decoder application.
type App struct {
	RT    *pedf.Runtime
	Front *pedf.Module
	Pred  *pedf.Module
	Out   *pedf.Collector
	P     Params
	Bits  []byte
}

// IpredAssignLine returns the source line of ipred.c holding the
// dataflow assignment to Add2Dblock_ipf_out (the step_both walkthrough's
// stop line).
func IpredAssignLine() int {
	for i, line := range strings.Split(ipredSrc, "\n") {
		if strings.Contains(line, "pedf.io.Add2Dblock_ipf_out") {
			return i + 1
		}
	}
	return 0
}

var (
	u8t  = filterc.Scalar(filterc.U8)
	u16t = filterc.Scalar(filterc.U16)
	u32t = filterc.Scalar(filterc.U32)
	i32t = filterc.Scalar(filterc.I32)
)

// Bug selects a deliberately injected defect for the bug-localization
// experiments (Q1) — one per challenge class of the paper's Section VI-F
// discussion.
type Bug int

const (
	// BugNone builds the correct decoder.
	BugNone Bug = iota
	// BugSwapMBInputs is an architecture defect: the graph wires red's
	// energy output into mb's Addr_in and ipred's address output into
	// mb's Izz_in (both links carry U32, so it type-checks).
	BugSwapMBInputs
	// BugRateStall is a token-rate defect: the pred controller fires the
	// consumers (ipf, mb) only on odd steps, so tokens accumulate and
	// the application stalls (also the Figure 4 scenario).
	BugRateStall
	// BugBadDC is an algorithmic defect inside ipred's filter code: the
	// DC prediction rounds incorrectly, producing wrong pixels for DC
	// blocks with both neighbours available.
	BugBadDC
)

func (b Bug) String() string {
	switch b {
	case BugNone:
		return "none"
	case BugSwapMBInputs:
		return "swapped-mb-inputs"
	case BugRateStall:
		return "rate-stall"
	case BugBadDC:
		return "bad-dc-rounding"
	default:
		return fmt.Sprintf("Bug(%d)", int(b))
	}
}

// ParseBug maps a command-line bug name to its Bug value. It accepts
// the canonical String() names plus the short "bad-dc" alias the dfdbg
// flag historically used.
func ParseBug(s string) (Bug, error) {
	switch s {
	case "", "none":
		return BugNone, nil
	case "swapped-mb-inputs":
		return BugSwapMBInputs, nil
	case "rate-stall":
		return BugRateStall, nil
	case "bad-dc", "bad-dc-rounding":
		return BugBadDC, nil
	}
	return 0, fmt.Errorf("unknown bug %q (none, swapped-mb-inputs, rate-stall, bad-dc)", s)
}

// Build elaborates the Figure 4 decoder into rt and feeds it the
// bitstream. stall selects the rate-mismatch pred controller used by
// experiment F4 (the app then does not run to completion).
func Build(rt *pedf.Runtime, p Params, bits []byte, stall bool) (*App, error) {
	bug := BugNone
	if stall {
		bug = BugRateStall
	}
	return BuildVariant(rt, p, bits, bug)
}

// BuildVariant is Build with an injected defect.
func BuildVariant(rt *pedf.Runtime, p Params, bits []byte, bug Bug) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nY := int64(p.NumBlocks())
	nC := int64(p.NumBlocksC())
	perFrame := int64(p.BlocksPerFrame())
	steps := perFrame * int64(p.FrameCount())
	bpr := int64(p.BlocksPerRow())
	bprC := int64(1)
	if p.Chroma {
		bprC = int64(p.chromaParams().BlocksPerRow())
	}
	qp := int64(p.QP)

	front, err := rt.NewModule("front", nil)
	if err != nil {
		return nil, err
	}
	pred, err := rt.NewModule("pred", nil)
	if err != nil {
		return nil, err
	}
	streamIn, err := front.AddPort("stream_in", pedf.In, u8t)
	if err != nil {
		return nil, err
	}
	frameOut, err := pred.AddPort("frame_out", pedf.Out, BlkType)
	if err != nil {
		return nil, err
	}

	bh, err := rt.NewFilter(front, pedf.FilterSpec{
		Name: "bh", Source: bhSrc, SourceFile: "bh.c",
		Data:   []pedf.VarSpec{{Name: "mbs_parsed", Type: u32t}},
		Inputs: []pedf.PortSpec{{Name: "stream_in", Type: u8t}},
		Outputs: []pedf.PortSpec{
			{Name: "Hdr_hwcfg_out", Type: u32t},
			{Name: "Coef_red_out", Type: i32t},
		},
	})
	if err != nil {
		return nil, err
	}
	hwcfg, err := rt.NewFilter(front, pedf.FilterSpec{
		Name: "hwcfg", Source: hwcfgSrc, SourceFile: "hwcfg.c",
		Inputs: []pedf.PortSpec{{Name: "Hdr_in", Type: u32t}},
		Outputs: []pedf.PortSpec{
			{Name: "pipe_MbType_out", Type: u16t},
			{Name: "ipred_Mode_out", Type: u8t},
		},
	})
	if err != nil {
		return nil, err
	}
	pipe, err := rt.NewFilter(front, pedf.FilterSpec{
		Name: "pipe", Source: pipeSrc, SourceFile: "pipe.c",
		Inputs: []pedf.PortSpec{
			{Name: "MbType_in", Type: u16t},
			{Name: "Red2PipeCbMB_in", Type: CbCrMBType},
		},
		Outputs: []pedf.PortSpec{
			{Name: "Pipe_ipred_out", Type: CbCrMBType},
			{Name: "pipe_ipf_out", Type: u32t},
		},
	})
	if err != nil {
		return nil, err
	}
	red, err := rt.NewFilter(pred, pedf.FilterSpec{
		Name: "red", Source: redSrc, SourceFile: "red.c",
		Data: []pedf.VarSpec{{Name: "next_addr", Type: u32t}},
		Attrs: []pedf.VarSpec{
			{Name: "qp", Type: u32t, Init: qp},
			{Name: "n_y", Type: u32t, Init: nY},
			{Name: "n_c", Type: u32t, Init: nC},
			{Name: "blocks_per_frame", Type: u32t, Init: perFrame},
		},
		Inputs: []pedf.PortSpec{{Name: "bh_in", Type: i32t}},
		Outputs: []pedf.PortSpec{
			{Name: "Red2PipeCbMB_out", Type: CbCrMBType},
			{Name: "Izz_mb_out", Type: u32t},
		},
	})
	if err != nil {
		return nil, err
	}
	ipredCode := ipredSrc
	if bug == BugBadDC {
		// (s+12)/8 is exactly (s+4)/8 + 1: every DC prediction with both
		// neighbours available comes out one too high.
		ipredCode = strings.Replace(ipredSrc, "dc = (s + 4) / 8;", "dc = (s + 12) / 8;", 1)
	}
	ipred, err := rt.NewFilter(pred, pedf.FilterSpec{
		Name: "ipred", Source: ipredCode, SourceFile: "ipred.c",
		Data: []pedf.VarSpec{
			{Name: "topbuf", Type: filterc.ArrayOf(i32t, p.W)},
			{Name: "leftbuf", Type: filterc.ArrayOf(i32t, B)},
			{Name: "cnt", Type: u32t},
		},
		Attrs: []pedf.VarSpec{
			{Name: "bpr", Type: u32t, Init: bpr},
			{Name: "bpr_c", Type: u32t, Init: bprC},
			{Name: "n_y", Type: u32t, Init: nY},
			{Name: "blocks_per_frame", Type: u32t, Init: perFrame},
		},
		Inputs: []pedf.PortSpec{
			{Name: "Pipe_in", Type: CbCrMBType},
			{Name: "Hwcfg_in", Type: u8t},
		},
		Outputs: []pedf.PortSpec{
			{Name: "Add2Dblock_ipf_out", Type: BlkType},
			{Name: "Add2Dblock_MB_out", Type: u32t},
		},
	})
	if err != nil {
		return nil, err
	}
	ipf, err := rt.NewFilter(pred, pedf.FilterSpec{
		Name: "ipf", Source: ipfSrc, SourceFile: "ipf.c",
		Data: []pedf.VarSpec{
			{Name: "rcol", Type: filterc.ArrayOf(i32t, B)},
			{Name: "cnt", Type: u32t},
		},
		Attrs: []pedf.VarSpec{
			{Name: "bpr", Type: u32t, Init: bpr},
			{Name: "bpr_c", Type: u32t, Init: bprC},
			{Name: "n_y", Type: u32t, Init: nY},
			{Name: "blocks_per_frame", Type: u32t, Init: perFrame},
			{Name: "qp", Type: u32t, Init: qp},
		},
		Inputs: []pedf.PortSpec{
			{Name: "pipe_in", Type: u32t},
			{Name: "Add2Dblock_ipred_in", Type: BlkType},
		},
		Outputs: []pedf.PortSpec{{Name: "Dblk_mb_out", Type: BlkType}},
	})
	if err != nil {
		return nil, err
	}
	mb, err := rt.NewFilter(pred, pedf.FilterSpec{
		Name: "mb", Source: mbSrc, SourceFile: "mb.c",
		Data: []pedf.VarSpec{
			{Name: "addr_mismatch", Type: u32t},
			{Name: "izz_total", Type: u32t},
		},
		Inputs: []pedf.PortSpec{
			{Name: "Izz_in", Type: u32t},
			{Name: "Addr_in", Type: u32t},
			{Name: "Blk_in", Type: BlkType},
		},
		Outputs: []pedf.PortSpec{{Name: "frame_out", Type: BlkType}},
	})
	if err != nil {
		return nil, err
	}

	if _, err := rt.SetController(front, pedf.ControllerSpec{
		Source: frontCtlSrc, SourceFile: "front_ctrl.c",
		Attrs: []pedf.VarSpec{{Name: "n_mbs", Type: u32t, Init: steps}},
	}); err != nil {
		return nil, err
	}
	predCtl := predCtlSrc
	predCtlFile := "pred_ctrl.c"
	if bug == BugRateStall {
		predCtl = predCtlStallSrc
		predCtlFile = "pred_ctrl_stall.c"
	}
	if _, err := rt.SetController(pred, pedf.ControllerSpec{
		Source: predCtl, SourceFile: predCtlFile,
		Attrs: []pedf.VarSpec{{Name: "n_mbs", Type: u32t, Init: steps}},
	}); err != nil {
		return nil, err
	}

	binds := [][2]*pedf.Port{
		{streamIn, bh.In("stream_in")},
		{bh.Out("Hdr_hwcfg_out"), hwcfg.In("Hdr_in")},
		{bh.Out("Coef_red_out"), red.In("bh_in")},
		{hwcfg.Out("pipe_MbType_out"), pipe.In("MbType_in")},
		{hwcfg.Out("ipred_Mode_out"), ipred.In("Hwcfg_in")},
		{red.Out("Red2PipeCbMB_out"), pipe.In("Red2PipeCbMB_in")},
		{red.Out("Izz_mb_out"), mb.In("Izz_in")},
		{pipe.Out("Pipe_ipred_out"), ipred.In("Pipe_in")},
		{pipe.Out("pipe_ipf_out"), ipf.In("pipe_in")},
		{ipred.Out("Add2Dblock_ipf_out"), ipf.In("Add2Dblock_ipred_in")},
		{ipred.Out("Add2Dblock_MB_out"), mb.In("Addr_in")},
		{ipf.Out("Dblk_mb_out"), mb.In("Blk_in")},
		{mb.Out("frame_out"), frameOut},
	}
	if bug == BugSwapMBInputs {
		// The architecture defect: both links carry U32, so the swap
		// type-checks and only misbehaves at runtime.
		binds[6] = [2]*pedf.Port{red.Out("Izz_mb_out"), mb.In("Addr_in")}
		binds[10] = [2]*pedf.Port{ipred.Out("Add2Dblock_MB_out"), mb.In("Izz_in")}
	}
	for _, b := range binds {
		if err := rt.Bind(b[0], b[1]); err != nil {
			return nil, err
		}
	}

	if err := rt.FeedBytes(streamIn, bits); err != nil {
		return nil, err
	}
	col, err := rt.CollectOutput(frameOut)
	if err != nil {
		return nil, err
	}
	return &App{RT: rt, Front: front, Pred: pred, Out: col, P: p, Bits: bits}, nil
}

// ExpectedLinks returns the intended (bug-free) dataflow links as
// "src::port -> dst::port" strings after module-port alias resolution —
// the architecture ground truth a developer reads off the ADL, used to
// audit a reconstructed graph during bug localization.
func ExpectedLinks() []string {
	return []string{
		"env::feed_stream_in -> bh::stream_in",
		"bh::Hdr_hwcfg_out -> hwcfg::Hdr_in",
		"bh::Coef_red_out -> red::bh_in",
		"hwcfg::pipe_MbType_out -> pipe::MbType_in",
		"hwcfg::ipred_Mode_out -> ipred::Hwcfg_in",
		"red::Red2PipeCbMB_out -> pipe::Red2PipeCbMB_in",
		"red::Izz_mb_out -> mb::Izz_in",
		"pipe::Pipe_ipred_out -> ipred::Pipe_in",
		"pipe::pipe_ipf_out -> ipf::pipe_in",
		"ipred::Add2Dblock_ipf_out -> ipf::Add2Dblock_ipred_in",
		"ipred::Add2Dblock_MB_out -> mb::Addr_in",
		"ipf::Dblk_mb_out -> mb::Blk_in",
		"mb::frame_out -> env::drain_frame_out",
	}
}

// OutputFrame reassembles a single decoded frame from the collected
// block tokens (sequences use OutputFrames).
func (a *App) OutputFrame() ([]int, error) {
	frames, err := a.OutputFrames()
	if err != nil {
		return nil, err
	}
	if len(frames) != 1 {
		return nil, fmt.Errorf("h264: %d frames decoded; use OutputFrames", len(frames))
	}
	return frames[0], nil
}

// assemblePlane places plane-relative block tokens into a WxH plane.
func assemblePlane(vals []filterc.Value, w, h int) ([]int, error) {
	n := (w / B) * (h / B)
	if len(vals) != n {
		return nil, fmt.Errorf("h264: %d block(s) for a %dx%d plane (want %d)", len(vals), w, h, n)
	}
	bpr := w / B
	plane := make([]int, w*h)
	seen := make([]bool, n)
	for _, v := range vals {
		if v.Type == nil || v.Type.Kind != filterc.KStruct || v.Type.Name != "Blk_t" {
			return nil, fmt.Errorf("h264: unexpected output token %s", v.Type)
		}
		addr := int(v.Elems[0].I)
		if addr < 0 || addr >= n || seen[addr] {
			return nil, fmt.Errorf("h264: bad or duplicate block address %d", addr)
		}
		seen[addr] = true
		bx, by := addr%bpr, addr/bpr
		pix := v.Elems[1].Elems
		for i := 0; i < B; i++ {
			for j := 0; j < B; j++ {
				plane[(by*B+i)*w+bx*B+j] = int(pix[i*B+j].I)
			}
		}
	}
	return plane, nil
}

// OutputSequence reassembles the decoded YCbCr sequence. Block tokens
// carry plane-relative addresses and arrive in stream order: per frame,
// the luma blocks first, then (with chroma) the Cb and Cr planes'.
func (a *App) OutputSequence() ([]FramePlanes, error) {
	nY, nC := a.P.NumBlocks(), a.P.NumBlocksC()
	per := a.P.BlocksPerFrame()
	want := per * a.P.FrameCount()
	if len(a.Out.Values) != want {
		return nil, fmt.Errorf("h264: collected %d block(s), want %d", len(a.Out.Values), want)
	}
	cw, ch := a.P.W/2, a.P.H/2
	frames := make([]FramePlanes, a.P.FrameCount())
	for f := range frames {
		base := f * per
		y, err := assemblePlane(a.Out.Values[base:base+nY], a.P.W, a.P.H)
		if err != nil {
			return nil, fmt.Errorf("h264: frame %d luma: %w", f, err)
		}
		frames[f].Y = y
		if nC == 0 {
			continue
		}
		cb, err := assemblePlane(a.Out.Values[base+nY:base+nY+nC], cw, ch)
		if err != nil {
			return nil, fmt.Errorf("h264: frame %d Cb: %w", f, err)
		}
		cr, err := assemblePlane(a.Out.Values[base+nY+nC:base+per], cw, ch)
		if err != nil {
			return nil, fmt.Errorf("h264: frame %d Cr: %w", f, err)
		}
		frames[f].Cb, frames[f].Cr = cb, cr
	}
	return frames, nil
}

// OutputFrames reassembles the decoded luma planes (the full YCbCr data
// is available through OutputSequence).
func (a *App) OutputFrames() ([][]int, error) {
	seq, err := a.OutputSequence()
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(seq))
	for i := range seq {
		out[i] = seq[i].Y
	}
	return out, nil
}
