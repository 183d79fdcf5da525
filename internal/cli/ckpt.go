// Checkpoint, restore and reverse-execution commands (DESIGN §13).
//
//	checkpoint [<label>]
//	checkpoints
//	restore [<id>]
//	reverse-step
//	reverse-continue
//
// The CLI does not own the checkpoint machinery: restoring rebuilds
// the entire kernel stack (including this CLI instance), so the
// session driver (stack.Session) installs hooks that run its
// ckpt.Manager, and swaps the rebuilt stack in after the command
// returns.
package cli

import (
	"fmt"
	"strconv"

	"dfdbg/internal/ckpt"
)

// CkptHooks are the driver-provided entry points behind the checkpoint
// commands. Any nil hook (or a nil CkptHooks) disables its command.
type CkptHooks struct {
	// Save captures a checkpoint of the live stack.
	Save func(label string) (ckpt.Info, error)
	// List summarizes retained checkpoints, oldest first.
	List func() []ckpt.Info
	// Restore rebuilds from the checkpoint with the given id (0 =
	// latest) with replay verification; the driver adopts the new
	// stack after the command returns.
	Restore func(id int) (ckpt.Info, error)
	// ReverseStep undoes the most recent control command.
	ReverseStep func() error
	// ReverseContinue restores the most recent checkpoint.
	ReverseContinue func() (ckpt.Info, error)
}

func (c *CLI) ckptSaveCmd(rest []string) error {
	if c.Ckpt == nil || c.Ckpt.Save == nil {
		return fmt.Errorf("checkpointing is not wired on this session")
	}
	label := ""
	if len(rest) > 0 {
		label = rest[0]
	}
	info, err := c.Ckpt.Save(label)
	if err != nil {
		return err
	}
	c.printCkptInfo("Checkpoint", info)
	return nil
}

func (c *CLI) ckptListCmd(rest []string) error {
	if c.Ckpt == nil || c.Ckpt.List == nil {
		return fmt.Errorf("checkpointing is not wired on this session")
	}
	if len(rest) != 0 {
		return fmt.Errorf("usage: checkpoints")
	}
	infos := c.Ckpt.List()
	if len(infos) == 0 {
		c.printf("no checkpoints\n")
		return nil
	}
	for _, info := range infos {
		c.printCkptInfo("", info)
	}
	return nil
}

func (c *CLI) ckptRestoreCmd(rest []string) error {
	if c.Ckpt == nil || c.Ckpt.Restore == nil {
		return fmt.Errorf("checkpointing is not wired on this session")
	}
	id := 0
	if len(rest) == 1 {
		n, err := strconv.Atoi(rest[0])
		if err != nil {
			return fmt.Errorf("usage: restore [<checkpoint-id>]")
		}
		id = n
	} else if len(rest) > 1 {
		return fmt.Errorf("usage: restore [<checkpoint-id>]")
	}
	info, err := c.Ckpt.Restore(id)
	if err != nil {
		return err
	}
	c.printCkptInfo("Restored (replay-verified)", info)
	return nil
}

func (c *CLI) reverseStepCmd(rest []string) error {
	if c.Ckpt == nil || c.Ckpt.ReverseStep == nil {
		return fmt.Errorf("reverse execution is not wired on this session")
	}
	if len(rest) != 0 {
		return fmt.Errorf("usage: reverse-step")
	}
	if err := c.Ckpt.ReverseStep(); err != nil {
		return err
	}
	c.printf("Reversed past the last control command\n")
	return nil
}

func (c *CLI) reverseContinueCmd(rest []string) error {
	if c.Ckpt == nil || c.Ckpt.ReverseContinue == nil {
		return fmt.Errorf("reverse execution is not wired on this session")
	}
	if len(rest) != 0 {
		return fmt.Errorf("usage: reverse-continue")
	}
	info, err := c.Ckpt.ReverseContinue()
	if err != nil {
		return err
	}
	c.printCkptInfo("Reversed to checkpoint (replay-verified)", info)
	return nil
}

func (c *CLI) printCkptInfo(prefix string, info ckpt.Info) {
	label := ""
	if info.Label != "" {
		label = fmt.Sprintf(" %q", info.Label)
	}
	if prefix != "" {
		prefix += " "
	}
	c.printf("%s#%d%s at t=%dns (%d bytes, journal %d)\n",
		prefix, info.ID, label, info.TimeNS, info.Bytes, info.Journal)
}
