package h264

import (
	"fmt"

	"dfdbg/internal/filterc"
	"dfdbg/internal/mind"
	"dfdbg/internal/pedf"
)

// This file expresses the same Figure 4 decoder in the MIND architecture
// description language — the way the paper's application is actually
// authored — and elaborates it into PEDF through the ADL tool-chain.
// The template is parameterized on the stream geometry, which is
// precisely what the paper's MIND compiler does when it generates the
// platform-specific C++ from the annotated descriptions.

// DecoderADL renders the decoder's ADL description for a stream shape.
func DecoderADL(p Params) string {
	return fmt.Sprintf(`
// H.264-style decoder, paper Figure 4 (front + pred modules).

@Filter
primitive Bh {
	data  stddefs.h:U32 mbs_parsed;
	source bh.c;
	input stddefs.h:U8 as stream_in;
	output stddefs.h:U32 as Hdr_hwcfg_out;
	output stddefs.h:I32 as Coef_red_out;
}

@Filter
primitive Hwcfg {
	source hwcfg.c;
	input stddefs.h:U32 as Hdr_in;
	output stddefs.h:U16 as pipe_MbType_out;
	output stddefs.h:U8 as ipred_Mode_out;
}

@Filter
primitive Pipe {
	source pipe.c;
	input stddefs.h:U16 as MbType_in;
	input types.h:CbCrMB_t as Red2PipeCbMB_in;
	output types.h:CbCrMB_t as Pipe_ipred_out;
	output stddefs.h:U32 as pipe_ipf_out;
}

@Filter
primitive Red {
	data      stddefs.h:U32 next_addr;
	attribute stddefs.h:U32 qp = %[1]d;
	attribute stddefs.h:U32 n_y = %[4]d;
	attribute stddefs.h:U32 n_c = %[6]d;
	attribute stddefs.h:U32 blocks_per_frame = %[7]d;
	source red.c;
	input stddefs.h:I32 as bh_in;
	output types.h:CbCrMB_t as Red2PipeCbMB_out;
	output stddefs.h:U32 as Izz_mb_out;
}

@Filter
primitive Ipred {
	data      stddefs.h:I32[%[2]d] topbuf;
	data      stddefs.h:I32[4] leftbuf;
	data      stddefs.h:U32 cnt;
	attribute stddefs.h:U32 bpr = %[3]d;
	attribute stddefs.h:U32 bpr_c = %[8]d;
	attribute stddefs.h:U32 n_y = %[4]d;
	attribute stddefs.h:U32 blocks_per_frame = %[7]d;
	source ipred.c;
	input types.h:CbCrMB_t as Pipe_in;
	input stddefs.h:U8 as Hwcfg_in;
	output types.h:Blk_t as Add2Dblock_ipf_out;
	output stddefs.h:U32 as Add2Dblock_MB_out;
}

@Filter
primitive Ipf {
	data      stddefs.h:I32[4] rcol;
	data      stddefs.h:U32 cnt;
	attribute stddefs.h:U32 bpr = %[3]d;
	attribute stddefs.h:U32 bpr_c = %[8]d;
	attribute stddefs.h:U32 n_y = %[4]d;
	attribute stddefs.h:U32 blocks_per_frame = %[7]d;
	attribute stddefs.h:U32 qp = %[1]d;
	source ipf.c;
	input stddefs.h:U32 as pipe_in;
	input types.h:Blk_t as Add2Dblock_ipred_in;
	output types.h:Blk_t as Dblk_mb_out;
}

@Filter
primitive Mb {
	data stddefs.h:U32 addr_mismatch;
	data stddefs.h:U32 izz_total;
	source mb.c;
	input stddefs.h:U32 as Izz_in;
	input stddefs.h:U32 as Addr_in;
	input types.h:Blk_t as Blk_in;
	output types.h:Blk_t as frame_out;
}

@Module
composite Front {
	contains as controller {
		attribute stddefs.h:U32 n_mbs = %[5]d;
		source front_ctrl.c;
	}
	input stddefs.h:U8 as stream_in;
	input types.h:CbCrMB_t as cbcr_in;
	output stddefs.h:I32 as coef_out;
	output stddefs.h:U8 as mode_out;
	output types.h:CbCrMB_t as work_out;
	output stddefs.h:U32 as dblk_cfg_out;
	contains Bh as bh;
	contains Hwcfg as hwcfg;
	contains Pipe as pipe;
	binds this.stream_in to bh.stream_in;
	binds bh.Hdr_hwcfg_out to hwcfg.Hdr_in;
	binds bh.Coef_red_out to this.coef_out;
	binds hwcfg.pipe_MbType_out to pipe.MbType_in;
	binds hwcfg.ipred_Mode_out to this.mode_out;
	binds this.cbcr_in to pipe.Red2PipeCbMB_in;
	binds pipe.Pipe_ipred_out to this.work_out;
	binds pipe.pipe_ipf_out to this.dblk_cfg_out;
}

@Module
composite Pred {
	contains as controller {
		attribute stddefs.h:U32 n_mbs = %[5]d;
		source pred_ctrl.c;
	}
	input stddefs.h:I32 as coef_in;
	input stddefs.h:U8 as mode_in;
	input types.h:CbCrMB_t as work_in;
	input stddefs.h:U32 as dblk_cfg_in;
	output types.h:CbCrMB_t as cbcr_out;
	output types.h:Blk_t as frame_out;
	contains Red as red;
	contains Ipred as ipred;
	contains Ipf as ipf;
	contains Mb as mb;
	binds this.coef_in to red.bh_in;
	binds red.Red2PipeCbMB_out to this.cbcr_out;
	binds red.Izz_mb_out to mb.Izz_in;
	binds this.mode_in to ipred.Hwcfg_in;
	binds this.work_in to ipred.Pipe_in;
	binds this.dblk_cfg_in to ipf.pipe_in;
	binds ipred.Add2Dblock_ipf_out to ipf.Add2Dblock_ipred_in;
	binds ipred.Add2Dblock_MB_out to mb.Addr_in;
	binds ipf.Dblk_mb_out to mb.Blk_in;
	binds mb.frame_out to this.frame_out;
}

@Module
composite Decoder {
	input stddefs.h:U8 as stream;
	output types.h:Blk_t as frame;
	contains Front as front;
	contains Pred as pred;
	binds this.stream to front.stream_in;
	binds front.coef_out to pred.coef_in;
	binds front.mode_out to pred.mode_in;
	binds pred.cbcr_out to front.cbcr_in;
	binds front.work_out to pred.work_in;
	binds front.dblk_cfg_out to pred.dblk_cfg_in;
	binds pred.frame_out to this.frame;
}
`, p.QP, p.W, p.BlocksPerRow(), p.NumBlocks(),
		p.BlocksPerFrame()*p.FrameCount(), p.NumBlocksC(), p.BlocksPerFrame(), adlBprC(p))
}

// adlBprC returns the chroma blocks-per-row attribute value (1 when
// chroma is disabled; the plane branch is then unreachable).
func adlBprC(p Params) int {
	if !p.Chroma {
		return 1
	}
	return p.chromaParams().BlocksPerRow()
}

// DecoderSources maps the ADL's `source x.c;` clauses to the filterc
// code (the same sources the programmatic builder embeds).
func DecoderSources() map[string]string {
	return map[string]string{
		"bh.c":         bhSrc,
		"hwcfg.c":      hwcfgSrc,
		"pipe.c":       pipeSrc,
		"red.c":        redSrc,
		"ipred.c":      ipredSrc,
		"ipf.c":        ipfSrc,
		"mb.c":         mbSrc,
		"front_ctrl.c": frontCtlSrc,
		"pred_ctrl.c":  predCtlSrc,
	}
}

// DecoderTypes is the struct-type registry the ADL's `types.h:` names
// resolve against.
func DecoderTypes() map[string]*filterc.Type {
	return map[string]*filterc.Type{
		"CbCrMB_t": CbCrMBType,
		"Blk_t":    BlkType,
	}
}

// BuildFromADL elaborates the decoder through the MIND tool-chain
// instead of the programmatic builder, feeds the bitstream, and returns
// the same App handle.
func BuildFromADL(rt *pedf.Runtime, p Params, bits []byte) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f, err := mind.Parse("decoder.adl", DecoderADL(p))
	if err != nil {
		return nil, err
	}
	el := &mind.Elaborator{Sources: DecoderSources(), Types: DecoderTypes()}
	top, err := el.Instantiate(rt, f, "Decoder")
	if err != nil {
		return nil, err
	}
	if err := rt.FeedBytes(top.Port("stream"), bits); err != nil {
		return nil, err
	}
	col, err := rt.CollectOutput(top.Port("frame"))
	if err != nil {
		return nil, err
	}
	return &App{
		RT: rt, Front: rt.ModuleByName("front"), Pred: rt.ModuleByName("pred"),
		Out: col, P: p, Bits: bits,
	}, nil
}
