package experiments

import "testing"

func TestAblationRecvBuffer(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := AblationRecvBuffer(testOpts())
	// Small buffers bind: zero-window ACKs appear; a huge buffer never
	// closes the window within the test horizon.
	if res.ZeroWindow[128<<10] == 0 || res.ZeroWindow[384<<10] == 0 {
		t.Fatalf("binding buffers must show zero windows: %+v", res.ZeroWindow)
	}
	// The oversized buffer delays window closure (it still fills
	// eventually - the transfer is bigger than the buffer), so it
	// must show fewer zero-window events than a binding buffer.
	if res.ZeroWindow[8<<20] >= res.ZeroWindow[384<<10] {
		t.Fatalf("an oversized buffer should close the window later/less: %+v", res.ZeroWindow)
	}
	// With the huge buffer the initial unpaced burst is buffer-sized:
	// pacing only begins once the window binds.
	if res.BurstByBuf[8<<20] < 8*res.BurstByBuf[384<<10] {
		t.Fatalf("oversized buffer should admit a buffer-sized burst: %+v", res.BurstByBuf)
	}
}

func TestAblationLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := AblationLoss(testOpts())
	if len(res.Rows) != 3 {
		t.Fatal("rows")
	}
	// Retransmissions grow with loss; the p90 block spread widens.
	if !(res.Rows[2][3] > res.Rows[0][3]) {
		t.Fatalf("retrans%% must grow with loss: %+v", res.Rows)
	}
	if !(res.Rows[2][2] >= res.Rows[0][2]) {
		t.Fatalf("block spread should widen with loss: %+v", res.Rows)
	}
}
