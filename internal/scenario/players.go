package scenario

import (
	"fmt"
	"strings"

	"repro/internal/abr"
	"repro/internal/media"
	"repro/internal/player"
	"repro/internal/session"
)

// PlayerKind names a client application from Table 1. Scenario specs
// carry kinds rather than player.Player values because players are
// stateful single-use objects: every expanded session needs a fresh
// instance, which New provides.
type PlayerKind int

// The nine clients of the paper (six YouTube, three Netflix), plus
// the adaptive-bitrate players (segmented fetch loop + rendition
// ladder) the paper-era clients evolved into. Legacy indices are
// frozen — the ABR kinds append.
const (
	Flash PlayerKind = iota
	IEHtml5
	FirefoxHtml5
	ChromeHtml5
	AndroidYouTube
	IPadYouTube
	SilverlightPC
	NetflixIPad
	NetflixAndroid
	// AbrFixed pins the top ladder rung via the null controller: the
	// single-bitrate player expressed in the composable core, and the
	// stall-prone baseline of the rate-drop headline.
	AbrFixed
	// AbrRate switches on a throughput EWMA (the classic rate rule).
	AbrRate
	// AbrBuffer switches on the buffer level (BBA reservoir/cushion).
	AbrBuffer
	// AbrRange is the buffer-based controller fetching per-rendition
	// byte ranges from YouTube instead of Netflix-style fragments.
	AbrRange
)

// playerTable maps kinds to their metadata and factories. container
// is the format the client streams: FLV for the Flash plugin, MP4
// fragments for the Netflix clients and the fragment-fetching ABR
// kinds, WebM for every HTML5/native YouTube player.
var playerTable = []struct {
	kind      PlayerKind
	name      string
	service   session.ServiceKind
	container media.Container
	adaptive  bool
	mk        func() player.Player
}{
	{Flash, "flash", session.YouTube, media.Flash, false, func() player.Player { return player.NewFlashPlayer() }},
	{IEHtml5, "ie", session.YouTube, media.HTML5, false, func() player.Player { return player.NewIEHtml5() }},
	{FirefoxHtml5, "firefox", session.YouTube, media.HTML5, false, func() player.Player { return player.NewFirefoxHtml5() }},
	{ChromeHtml5, "chrome", session.YouTube, media.HTML5, false, func() player.Player { return player.NewChromeHtml5() }},
	{AndroidYouTube, "android-yt", session.YouTube, media.HTML5, false, func() player.Player { return player.NewAndroidYouTube() }},
	{IPadYouTube, "ipad-yt", session.YouTube, media.HTML5, false, func() player.Player { return player.NewIPadYouTube() }},
	{SilverlightPC, "silverlight", session.Netflix, media.Silverlight, false, func() player.Player { return player.NewSilverlightPC() }},
	{NetflixIPad, "netflix-ipad", session.Netflix, media.Silverlight, false, func() player.Player { return player.NewNetflixIPad() }},
	{NetflixAndroid, "netflix-android", session.Netflix, media.Silverlight, false, func() player.Player { return player.NewNetflixAndroid() }},
	{AbrFixed, "abr-fixed", session.Netflix, media.Silverlight, true, func() player.Player {
		return player.NewABRPlayer(player.ABRConfig{Controller: abr.NewFixed(-1)})
	}},
	{AbrRate, "abr-rate", session.Netflix, media.Silverlight, true, func() player.Player {
		return player.NewABRPlayer(player.ABRConfig{Controller: abr.NewRateBased()})
	}},
	{AbrBuffer, "abr-buffer", session.Netflix, media.Silverlight, true, func() player.Player {
		return player.NewABRPlayer(player.ABRConfig{Controller: abr.NewBufferBased()})
	}},
	{AbrRange, "abr-range", session.YouTube, media.HTML5, true, func() player.Player {
		return player.NewABRPlayer(player.ABRConfig{Controller: abr.NewBufferBased(), Source: player.Ranges})
	}},
}

// New returns a fresh player instance of this kind.
func (k PlayerKind) New() player.Player {
	return playerTable[k].mk()
}

// Service returns the service the client talks to.
func (k PlayerKind) Service() session.ServiceKind {
	return playerTable[k].service
}

// Adaptive reports whether the kind is an ABR player, i.e. streams a
// rendition ladder rather than one bitrate. Specs give adaptive kinds
// the default ladder when the video carries none.
func (k PlayerKind) Adaptive() bool {
	return playerTable[k].adaptive
}

// NativeContainer returns the container this client streams in (the
// playerTable column). Specs and experiments share this single mapping.
func (k PlayerKind) NativeContainer() media.Container {
	return playerTable[k].container
}

// String returns the spec-level name (also accepted by PlayerKindByName).
func (k PlayerKind) String() string {
	if int(k) < 0 || int(k) >= len(playerTable) {
		return fmt.Sprintf("PlayerKind(%d)", int(k))
	}
	return playerTable[k].name
}

// PlayerKinds lists every kind in Table 1 order.
func PlayerKinds() []PlayerKind {
	out := make([]PlayerKind, len(playerTable))
	for i, e := range playerTable {
		out[i] = e.kind
	}
	return out
}

// PlayerKindByName resolves a spec-level name (case-insensitive).
func PlayerKindByName(name string) (PlayerKind, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	for _, e := range playerTable {
		if e.name == name {
			return e.kind, true
		}
	}
	return 0, false
}
