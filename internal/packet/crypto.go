package packet

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
)

const cryptoHeaderLen = 16

// Crypto flag bits.
const (
	// CryptoInspectable marks the inner layer type as declared in
	// cleartext, so middleboxes can see *what* is carried without seeing
	// the content — the "visible choice" compromise of §VI-A.
	CryptoInspectable uint8 = 1 << 0
)

// ErrAuth is returned when decryption fails authentication.
var ErrAuth = errors.New("packet: crypto authentication failed")

// Crypto is the end-to-end encryption layer. §VI-A: "Peeking is
// irresistible... the ultimate defense of the end-to-end mode is
// end-to-end encryption." The layer's single design choice that matters
// for tussle is the Inspectable flag: whether the *fact* and *kind* of
// what is carried is visible even though the content is not.
//
// Encryption is real (SHA-256 based stream cipher with an HMAC tag) but
// the point of the layer in this repository is visibility semantics, not
// cryptographic strength.
type Crypto struct {
	Flags uint8
	// Inner is the layer type under the encryption. On the wire it is
	// only present when Inspectable; after Decrypt it is always set.
	Inner LayerType
	KeyID uint32
	Nonce uint64

	// Ciphertext is the encrypted body (including the 8-byte tag).
	Ciphertext []byte

	contents []byte
	payload  []byte
}

// LayerType implements Layer.
func (c *Crypto) LayerType() LayerType { return LayerTypeCrypto }

// LayerContents implements Layer.
func (c *Crypto) LayerContents() []byte { return c.contents }

// LayerPayload implements Layer. For an inspectable crypto layer the
// payload is nil — the inner bytes are ciphertext and cannot be decoded
// in place; use Decrypt.
func (c *Crypto) LayerPayload() []byte { return nil }

// NextLayerType implements DecodingLayer. Encrypted content never chains:
// decoding stops here. (An inspectable layer still *declares* its inner
// type in Inner.)
func (c *Crypto) NextLayerType() LayerType { return LayerTypeNone }

// DecodeFrom implements DecodingLayer.
func (c *Crypto) DecodeFrom(data []byte) error {
	if len(data) < cryptoHeaderLen {
		return ErrTruncated
	}
	c.Flags = data[0]
	c.Inner = LayerType(data[1])
	if c.Flags&CryptoInspectable == 0 && c.Inner != 0 {
		return fmt.Errorf("%w: opaque layer leaks inner type", ErrBadHeader)
	}
	c.KeyID = getU32(data[2:])
	c.Nonce = getU64(data[6:])
	clen := int(getU16(data[14:]))
	if cryptoHeaderLen+clen > len(data) {
		return fmt.Errorf("%w: ciphertext %d bytes, %d available", ErrBadHeader, clen, len(data)-cryptoHeaderLen)
	}
	c.Ciphertext = data[cryptoHeaderLen : cryptoHeaderLen+clen]
	c.contents = data[:cryptoHeaderLen]
	c.payload = data[cryptoHeaderLen+clen:]
	return nil
}

// SerializeTo implements SerializableLayer. The inner layers must already
// have been encrypted with Seal and placed in Ciphertext; Crypto does not
// consume the buffer contents below it (there should be none).
func (c *Crypto) SerializeTo(b *SerializeBuffer) error {
	if len(c.Ciphertext) > 0xffff {
		return fmt.Errorf("%w: ciphertext too long", ErrBadHeader)
	}
	h := b.Prepend(cryptoHeaderLen + len(c.Ciphertext))
	h[0] = c.Flags
	if c.Flags&CryptoInspectable != 0 {
		h[1] = byte(c.Inner)
	}
	putU32(h[2:], c.KeyID)
	putU64(h[6:], c.Nonce)
	putU16(h[14:], uint16(len(c.Ciphertext)))
	copy(h[cryptoHeaderLen:], c.Ciphertext)
	return nil
}

const cryptoTagLen = 8

func keystream(key []byte, nonce uint64, n int) []byte {
	out := make([]byte, 0, n+32)
	var counter uint32
	var block [12]byte
	putU64(block[:], nonce)
	for len(out) < n {
		putU32(block[8:], counter)
		mac := hmac.New(sha256.New, key)
		mac.Write(block[:])
		out = append(out, mac.Sum(nil)...)
		counter++
	}
	return out[:n]
}

func authTag(key []byte, nonce uint64, ct []byte) []byte {
	mac := hmac.New(sha256.New, key)
	var nb [8]byte
	putU64(nb[:], nonce)
	mac.Write(nb[:])
	mac.Write(ct)
	return mac.Sum(nil)[:cryptoTagLen]
}

// Seal encrypts plaintext under key/nonce and stores the result (with an
// authentication tag) in Ciphertext, recording the inner layer type.
func (c *Crypto) Seal(key []byte, plaintext []byte, inner LayerType) {
	ks := keystream(key, c.Nonce, len(plaintext))
	ct := make([]byte, len(plaintext), len(plaintext)+cryptoTagLen)
	for i := range plaintext {
		ct[i] = plaintext[i] ^ ks[i]
	}
	c.Ciphertext = append(ct, authTag(key, c.Nonce, ct)...)
	c.Inner = inner
	if c.Flags&CryptoInspectable == 0 {
		// Inner stays in the struct for the key holder but is not
		// serialized; see SerializeTo.
	}
}

// Open decrypts Ciphertext with key, verifying the tag. It returns the
// plaintext and the inner layer type (from the wire for inspectable
// layers, otherwise as recorded by the sender out of band: callers decode
// the plaintext with the type they negotiated).
func (c *Crypto) Open(key []byte) ([]byte, error) {
	if len(c.Ciphertext) < cryptoTagLen {
		return nil, ErrTruncated
	}
	body := c.Ciphertext[:len(c.Ciphertext)-cryptoTagLen]
	tag := c.Ciphertext[len(c.Ciphertext)-cryptoTagLen:]
	if !hmac.Equal(tag, authTag(key, c.Nonce, body)) {
		return nil, ErrAuth
	}
	ks := keystream(key, c.Nonce, len(body))
	pt := make([]byte, len(body))
	for i := range body {
		pt[i] = body[i] ^ ks[i]
	}
	return pt, nil
}
